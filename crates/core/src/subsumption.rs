//! Sanderson–Croft subsumption hierarchies (SIGIR '99), used by the paper
//! to organize the selected facet terms into browsable trees.
//!
//! Term `x` **subsumes** `y` iff `P(x|y) ≥ threshold` and `P(y|x) < 1`,
//! with probabilities estimated from document co-occurrence: `P(x|y) =
//! df(x ∧ y) / df(y)`. Each term is attached under its *most specific*
//! subsumer (the subsumer with the smallest document frequency), which
//! yields a forest.
//!
//! Construction is two pieces: a `CoCounts` table of document and
//! co-document frequencies over the terms, and `choose_parents`, which
//! reads only that table. [`build_subsumption_forest`] is a scan followed
//! by parent choice; the incremental index instead advances one table per
//! publish by the new documents and the terms that enter the top k, and
//! runs the same parent choice over it.
//!
//! Most counts fail the threshold, so the table keeps, per slot, the
//! *passing list*: the member slots whose count in that row reaches the
//! least count that can clear the threshold at the row's document
//! frequency, with those counts. That raw-count test depends only on the
//! row's counts and `df`, so the lists change only where the counts do,
//! and a table is built for one threshold. Parent choice evaluates only
//! the list entries, with the full float tests, and never reads the
//! matrix. Lists are in slot order, not input order, so the tie-break is
//! explicit: the strongest confidence bucket wins, then the smaller
//! document frequency, then the earlier input term — exactly the subsumer
//! an input-order walk over every pair keeps.

use facet_textkit::{RowStore, TermId};

/// Parameters for subsumption.
#[derive(Debug, Clone, Copy)]
pub struct SubsumptionParams {
    /// The `P(x|y)` threshold (Sanderson & Croft use 0.8).
    pub threshold: f64,
    /// A subsumer must be strictly more general: `df(x) ≥ ratio · df(y)`.
    /// Keeps mutually co-occurring same-specificity terms (two names that
    /// always travel together) from parenting each other.
    pub min_generality_ratio: f64,
    /// A term present in more than this fraction of documents cannot be a
    /// parent: it co-occurs with everything and carries no subsumption
    /// information. Such terms become facet roots instead.
    pub max_parent_df_fraction: f64,
    /// Minimum lift `P(x|y) / P(x)`: the parent must co-occur with the
    /// child *above its own base rate*, rejecting chance co-occurrence of
    /// merely frequent terms (a PMI-style association requirement).
    pub min_lift: f64,
}

impl Default for SubsumptionParams {
    fn default() -> Self {
        Self {
            threshold: 0.8,
            min_generality_ratio: 1.5,
            max_parent_df_fraction: 0.8,
            min_lift: 1.15,
        }
    }
}

/// A subsumption forest over a set of terms: `parent[i]` is the index
/// (into the input term list) of term `i`'s parent, or `None` for roots.
#[derive(Debug, Clone)]
pub struct SubsumptionForest {
    /// The terms, in input order.
    pub terms: Vec<TermId>,
    /// Parent index per term.
    pub parent: Vec<Option<usize>>,
}

/// Slot-table sentinel: the symbol is not a member of the table.
const ABSENT: u32 = u32::MAX;

/// The least co-document count `c` with `c / df ≥ threshold`, by the very
/// float test parent choice applies (`df + 1` when no count up to `df`
/// clears it). `P(x|y)` is monotone in the count, so a row's count passes
/// the threshold exactly when it reaches this.
fn least_passing(threshold: f64, df: u32) -> u64 {
    let df = u64::from(df);
    let clears = |c: u64| c as f64 / df as f64 >= threshold;
    let mut least = ((threshold * df as f64).ceil() as u64).min(df + 1);
    while least > 0 && clears(least - 1) {
        least -= 1;
    }
    while least <= df && !clears(least) {
        least += 1;
    }
    least
}

/// Append the passing list of slot `own`'s row `row` to `out`:
/// `(slot, count)` for every member slot other than `own` whose count is
/// at least `least`.
fn read_passing(
    out: &mut Vec<(u32, u32)>,
    row: &[u32],
    own: usize,
    least: u64,
    term_of: &[Option<TermId>],
) {
    out.extend(
        row.iter()
            .enumerate()
            .filter(|&(x, &c)| u64::from(c) >= least && x != own && term_of[x].is_some())
            .map(|(x, &c)| (x as u32, c)),
    );
}

/// Co-document counts for a set of terms: per-term document frequency
/// and pairwise co-document frequency, slot-indexed, with a dense
/// symbol→slot table, and each row's passing list for one threshold.
///
/// A table is built by one scan over the document rows
/// ([`CoCounts::scan`]) or advanced by a delta ([`CoCounts::advance`]):
/// a growing index keeps one table for its current candidate set and, on
/// each publish, frees the slots of terms that left it, counts only the
/// new documents' pairs among the terms that stayed, and fills the rows
/// of entering terms from their postings. Either way the table holds,
/// for its members, exactly what a fresh scan over the same rows would
/// count, and the same passing lists, so [`choose_parents`] cannot tell
/// the two apart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoCounts {
    /// The `P(x|y)` threshold the passing lists are kept for.
    threshold: f64,
    /// `slot_of[sym]`: the term's slot, or [`ABSENT`].
    slot_of: Vec<u32>,
    /// `term_of[slot]`: the member term, or `None` for a free slot.
    term_of: Vec<Option<TermId>>,
    /// Free slots. Their `df`, row and passing list are empty; their
    /// column is stale until the slot is reused, which rewrites it.
    free: Vec<u32>,
    /// Slot capacity; `co` is `cap × cap`.
    cap: usize,
    /// Documents containing each slot's term.
    df: Vec<u32>,
    /// Symmetric co-document counts: `co[a * cap + b]` is the number of
    /// documents containing both slot `a`'s and slot `b`'s terms (for
    /// member slots `a` and `b`).
    co: Vec<u32>,
    /// `least[a]`: [`least_passing`] of `df[a]` at this threshold.
    least: Vec<u64>,
    /// The passing lists, row after row: slot `a`'s is
    /// `passing[ends[a]..ends[a + 1]]`, `(b, co[a * cap + b])` for the
    /// member slots `b ≠ a` whose count is at least `least[a]`, ascending
    /// by `b`. Parent choice reads the counts here, in one sequential
    /// pass, not in the matrix.
    passing: Vec<(u32, u32)>,
    /// `cap + 1` list boundaries into `passing`.
    ends: Vec<usize>,
    /// Document rows the counts cover (the prefix `0..n_docs`).
    n_docs: usize,
}

/// Document and pair counts of one contiguous range of rows, over the
/// slots of the table that counted them ([`CoCounts::count_range`]):
/// `df` per slot and the upper triangle of the pair counts. A scan is the
/// sum of its ranges' counts, so any split of the rows sums to the same
/// table.
#[derive(Debug)]
pub(crate) struct RangeCounts {
    n_docs: usize,
    df: Vec<u32>,
    co: Vec<u32>,
}

impl CoCounts {
    /// Count `terms` (distinct) over every row of `doc_terms`, the
    /// distinct terms of each document, with passing lists for
    /// `threshold`. Slot `i` holds `terms[i]`.
    pub(crate) fn scan<R: AsRef<[TermId]>>(
        terms: &[TermId],
        doc_terms: impl IntoIterator<Item = R>,
        threshold: f64,
    ) -> Self {
        let mut counts = Self::with_slots(terms, threshold);
        let range = counts.count_range(doc_terms);
        counts.absorb(vec![range]);
        counts
    }

    /// A table for `threshold` whose slot `i` holds `terms[i]`
    /// (distinct), with no rows counted yet: the slot table
    /// [`CoCounts::count_range`] reads. Its counts are empty until
    /// [`CoCounts::absorb`] fills them.
    pub(crate) fn with_slots(terms: &[TermId], threshold: f64) -> Self {
        let max_sym = terms.iter().map(|t| t.index()).max().map_or(0, |m| m + 1);
        let mut slot_of = vec![ABSENT; max_sym];
        for (i, t) in terms.iter().enumerate() {
            debug_assert_eq!(slot_of[t.index()], ABSENT, "duplicate term {t:?}");
            slot_of[t.index()] = i as u32;
        }
        Self {
            threshold,
            slot_of,
            term_of: terms.iter().copied().map(Some).collect(),
            free: Vec::new(),
            cap: terms.len(),
            df: Vec::new(),
            co: Vec::new(),
            least: Vec::new(),
            passing: Vec::new(),
            ends: vec![0; terms.len() + 1],
            n_docs: 0,
        }
    }

    /// Count one range of rows over this table's slots into fresh
    /// counts, reading only the slot table: the serial unit of a scan,
    /// which ranges of the same rows can run on separate threads. Only
    /// the upper triangle is written, half the writes of counting both
    /// orientations per document.
    pub(crate) fn count_range<R: AsRef<[TermId]>>(
        &self,
        rows: impl IntoIterator<Item = R>,
    ) -> RangeCounts {
        let n = self.cap;
        let mut out = RangeCounts {
            n_docs: 0,
            df: vec![0; n],
            co: vec![0; n * n],
        };
        let mut present: Vec<usize> = Vec::new();
        for d in rows {
            out.n_docs += 1;
            present.clear();
            present.extend(d.as_ref().iter().filter_map(|&t| self.slot(t)));
            for (a, &i) in present.iter().enumerate() {
                out.df[i] += 1;
                for &j in &present[a + 1..] {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    out.co[lo * n + hi] += 1;
                }
            }
        }
        out
    }

    /// Take the sum of `ranges` — the counts of consecutive ranges that
    /// together cover the rows, each from [`CoCounts::count_range`] on
    /// this table — as the table's counts, mirror the upper triangle
    /// once, and build every passing list in one pass over the table.
    /// Counts are integer sums, so the table is the same however the
    /// rows were split.
    pub(crate) fn absorb(&mut self, ranges: Vec<RangeCounts>) {
        let mut ranges = ranges.into_iter();
        let mut sum = match ranges.next() {
            Some(first) => first,
            None => self.count_range(std::iter::empty::<&[TermId]>()),
        };
        for range in ranges {
            sum.n_docs += range.n_docs;
            for (a, b) in sum.df.iter_mut().zip(&range.df) {
                *a += b;
            }
            for (a, b) in sum.co.iter_mut().zip(&range.co) {
                *a += b;
            }
        }
        let n = self.cap;
        for lo in 0..n {
            for hi in lo + 1..n {
                sum.co[hi * n + lo] = sum.co[lo * n + hi];
            }
        }
        self.n_docs = sum.n_docs;
        self.df = sum.df;
        self.co = sum.co;
        self.least = self
            .df
            .iter()
            .map(|&d| least_passing(self.threshold, d))
            .collect();
        let mut passing = Vec::new();
        for s in 0..n {
            read_passing(&mut passing, self.row(s), s, self.least[s], &self.term_of);
            self.ends[s + 1] = passing.len();
        }
        self.passing = passing;
    }

    /// Advance the table to count `terms` (distinct) over every row of
    /// `doc_terms`, whose prefix up to the last scan or advance it already
    /// covers for its current members (rows are only ever appended).
    /// `postings[sym]` lists the rows (ascending) that contain symbol
    /// `sym`, for every symbol of `doc_terms`.
    ///
    /// Costs O(new rows' member pairs + entering terms' postings rows +
    /// churn · capacity + passing-list entries, rewritten in one
    /// sequential pass), independent of the rows already counted for
    /// terms that stay.
    pub(crate) fn advance(
        &mut self,
        terms: &[TermId],
        doc_terms: &RowStore,
        postings: &[Vec<u32>],
    ) {
        // Leave: free every member that is not in the new set. Its list
        // entries go when the lists are rewritten, at the end.
        let mut keep = vec![false; self.cap];
        let mut entering: Vec<TermId> = Vec::new();
        for &t in terms {
            match self.slot(t) {
                Some(s) => keep[s] = true,
                None => entering.push(t),
            }
        }
        let mut gone = vec![false; self.cap];
        for (s, kept) in keep.into_iter().enumerate() {
            if !kept && self.term_of[s].is_some() {
                self.release(s);
                gone[s] = true;
            }
        }
        if terms.len() > self.cap {
            self.grow(terms.len());
            gone.resize(self.cap, false);
        }
        let max_sym = entering.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let max_sym = max_sym.max(postings.len());
        if max_sym > self.slot_of.len() {
            self.slot_of.resize(max_sym, ABSENT);
        }

        // Stay: the new rows' member slots, row after row, then per slot
        // the new rows holding it (a counting sort), so each row whose df
        // grows is counted while its stretch of the matrix is in cache.
        let cap = self.cap;
        let mut present: Vec<usize> = Vec::new();
        let mut bounds: Vec<usize> = vec![0];
        for d in doc_terms.iter_from(self.n_docs) {
            let start = present.len();
            present.extend(d.iter().filter_map(|&t| self.slot(t)));
            // Ascending, so each row is walked in address order.
            present[start..].sort_unstable();
            bounds.push(present.len());
        }
        self.n_docs = doc_terms.len();
        let mut starts = vec![0usize; cap + 1];
        for &i in &present {
            starts[i + 1] += 1;
        }
        for i in 0..cap {
            starts[i + 1] += starts[i];
        }
        let mut holding = vec![0usize; present.len()];
        let mut next = starts.clone();
        for (k, w) in bounds.windows(2).enumerate() {
            for &i in &present[w[0]..w[1]] {
                holding[next[i]] = k;
                next[i] += 1;
            }
        }
        let prior = self.least.clone();
        // (row, slot) of each count that reached its row's least passing
        // count, rows ascending; one that already passed is deduplicated
        // when the lists are rewritten.
        let mut joined: Vec<(u32, u32)> = Vec::new();
        for r in 0..cap {
            let docs = &holding[starts[r]..starts[r + 1]];
            if docs.is_empty() {
                continue;
            }
            self.df[r] += docs.len() as u32;
            let least = least_passing(self.threshold, self.df[r]);
            self.least[r] = least;
            let row = &mut self.co[r * cap..(r + 1) * cap];
            for &k in docs {
                for &j in &present[bounds[k]..bounds[k + 1]] {
                    if j != r {
                        row[j] += 1;
                        if u64::from(row[j]) == least {
                            joined.push((r as u32, j as u32));
                        }
                    }
                }
            }
        }

        // Enter: one at a time, each counted against the members present
        // when it joins, so a pair of entering terms is counted once (by
        // the later one) and mirrored into the earlier one's row. Every
        // symbol counts into `acc` without a branch: non-members land in
        // the sink cell `cap`. An entering row's list is read off its row
        // at the end; each other member row whose count in the new column
        // passes gains the entry.
        let mut entered = vec![false; cap];
        let mut acc = vec![0u32; cap + 1];
        for t in entering {
            let Some(s) = self.free.pop().map(|s| s as usize) else {
                unreachable!("grow() reserved a slot for every term");
            };
            self.slot_of[t.index()] = s as u32;
            self.term_of[s] = Some(t);
            entered[s] = true;
            let rows = postings.get(t.index()).map_or(&[][..], Vec::as_slice);
            self.df[s] = rows.len() as u32;
            self.least[s] = least_passing(self.threshold, self.df[s]);
            acc.fill(0);
            for &d in rows {
                let Some(row) = doc_terms.get(d as usize) else {
                    continue;
                };
                for &u in row {
                    acc[(self.slot_of[u.index()] as usize).min(cap)] += 1;
                }
            }
            acc[s] = 0;
            self.co[s * cap..(s + 1) * cap].copy_from_slice(&acc[..cap]);
            for (r, &c) in acc[..cap].iter().enumerate() {
                self.co[r * cap + s] = c;
                if u64::from(c) >= self.least[r] && self.term_of[r].is_some() && r != s {
                    joined.push((r as u32, s as u32));
                }
            }
        }

        // Rewrite the lists in one pass, row after row: drop the slots
        // that left, refresh the counts of rows whose df grew and drop
        // the entries now short of the least passing count, and merge in
        // the joined entries. A row that entered, or whose least passing
        // count fell (from df 0, at a threshold of 0 or less, so counts
        // that never moved pass now too), is read off its row instead.
        joined.sort_unstable();
        let mut joined = joined.into_iter().peekable();
        let mut passing: Vec<(u32, u32)> = Vec::with_capacity(self.passing.len());
        let mut ends = Vec::with_capacity(cap + 1);
        ends.push(0);
        let mut list: Vec<(u32, u32)> = Vec::new();
        for r in 0..cap {
            let row = &self.co[r * cap..(r + 1) * cap];
            let least = self.least[r];
            list.clear();
            if self.term_of[r].is_none() {
                // A free row has no list.
            } else if entered[r] || least < prior[r] {
                read_passing(&mut list, row, r, least, &self.term_of);
            } else {
                let grew = starts[r + 1] > starts[r];
                list.extend(self.list(r).iter().filter_map(|&(x, c)| {
                    let c = if grew { row[x as usize] } else { c };
                    (!gone[x as usize] && u64::from(c) >= least).then_some((x, c))
                }));
                let kept = list.len();
                while let Some((_, x)) = joined.next_if(|&(jr, _)| jr as usize == r) {
                    list.push((x, row[x as usize]));
                }
                if list.len() > kept {
                    list.sort_unstable();
                    list.dedup();
                }
            }
            while joined.next_if(|&(jr, _)| jr as usize == r).is_some() {}
            passing.extend_from_slice(&list);
            ends.push(passing.len());
        }
        self.passing = passing;
        self.ends = ends;
    }

    fn slot(&self, t: TermId) -> Option<usize> {
        self.slot_of
            .get(t.index())
            .copied()
            .filter(|&s| s != ABSENT)
            .map(|s| s as usize)
    }

    /// Row `s` of the matrix.
    fn row(&self, s: usize) -> &[u32] {
        &self.co[s * self.cap..(s + 1) * self.cap]
    }

    /// Row `s`'s passing list.
    fn list(&self, s: usize) -> &[(u32, u32)] {
        &self.passing[self.ends[s]..self.ends[s + 1]]
    }

    /// Free slot `s`: zero its `df` and row. Nothing reads a free slot's
    /// column, and the entering term that reuses the slot overwrites it;
    /// [`CoCounts::advance`] drops the slot from the lists.
    fn release(&mut self, s: usize) {
        if let Some(t) = self.term_of[s].take() {
            self.slot_of[t.index()] = ABSENT;
        }
        self.df[s] = 0;
        self.least[s] = least_passing(self.threshold, 0);
        self.co[s * self.cap..(s + 1) * self.cap].fill(0);
        self.free.push(s as u32);
    }

    /// Widen the matrix to `cap` slots, keeping every count.
    fn grow(&mut self, cap: usize) {
        let old = self.cap;
        let mut co = vec![0u32; cap * cap];
        for r in 0..old {
            co[r * cap..r * cap + old].copy_from_slice(&self.co[r * old..(r + 1) * old]);
        }
        self.co = co;
        self.df.resize(cap, 0);
        self.least.resize(cap, least_passing(self.threshold, 0));
        self.term_of.resize(cap, None);
        let last = self.ends[old];
        self.ends.resize(cap + 1, last);
        // Lowest new slot pops first.
        self.free.extend((old..cap).rev().map(|s| s as u32));
        self.cap = cap;
    }
}

/// Build the subsumption forest for `terms`, where `doc_terms[d]` lists
/// the distinct (sorted) terms of document `d` — typically from the
/// contextualized database, as in the paper. One scan of the co-document
/// counts followed by parent choice.
pub fn build_subsumption_forest<R: AsRef<[TermId]>>(
    terms: &[TermId],
    doc_terms: impl IntoIterator<Item = R>,
    params: SubsumptionParams,
) -> SubsumptionForest {
    choose_parents(
        terms,
        &CoCounts::scan(terms, doc_terms, params.threshold),
        params,
    )
}

/// Attach each of `terms` (in ranked order) under its best subsumer,
/// reading document and co-document frequencies from `counts` (which must
/// count every one of `terms`, with passing lists for
/// `params.threshold`), then break any cycles. Ties go to the earlier
/// term in `terms`, so the order is part of the result.
pub(crate) fn choose_parents(
    terms: &[TermId],
    counts: &CoCounts,
    params: SubsumptionParams,
) -> SubsumptionForest {
    choose_parents_scanned(terms, counts, params).0
}

/// Table entry of a slot that no term may be attached under.
const NO_PARENT: u32 = u32::MAX;

/// [`choose_parents`], also returning the count entries it evaluated (the
/// passing-list entries of every row it read).
pub(crate) fn choose_parents_scanned(
    terms: &[TermId],
    counts: &CoCounts,
    params: SubsumptionParams,
) -> (SubsumptionForest, u64) {
    debug_assert_eq!(
        counts.threshold.to_bits(),
        params.threshold.to_bits(),
        "the table's lists are kept for another threshold"
    );
    let n = terms.len();
    let n_docs = counts.n_docs;
    let slots: Vec<Option<usize>> = terms.iter().map(|&t| counts.slot(t)).collect();
    let df: Vec<u64> = slots
        .iter()
        .map(|s| s.map_or(0, |s| u64::from(counts.df[s])))
        .collect();
    let max_parent_df = (params.max_parent_df_fraction * n_docs as f64).ceil() as u64;
    let base_rate: Vec<f64> = df
        .iter()
        .map(|&d| d as f64 / n_docs.max(1) as f64)
        .collect();
    // `eligible[slot]`: the index of the term in that slot if it may
    // parent anything, else NO_PARENT — as for members outside `terms`.
    let mut eligible = vec![NO_PARENT; counts.cap];
    for (x, s) in slots.iter().enumerate() {
        if let Some(s) = *s {
            if df[x] != 0 && df[x] <= max_parent_df {
                eligible[s] = x as u32;
            }
        }
    }

    // For each term y, find subsumers and attach to the best one. Two
    // forces must balance: subsumption *strength* (a parent present in all
    // of y's documents beats one that barely clears the threshold — this
    // rejects frequent terms that co-occur by chance) and *specificity*
    // (Sanderson & Croft's transitive reduction: attach to the most
    // specific subsumer). We bucket P(x|y) into 5%-wide confidence bands
    // and pick the most specific subsumer within the strongest band.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut evaluated = 0u64;
    for y in 0..n {
        let Some(sy) = slots[y].filter(|_| df[y] != 0) else {
            continue;
        };
        let min_parent_df = params.min_generality_ratio * df[y] as f64;
        // Only the counts that can clear the threshold: the row's list.
        let passing = counts.list(sy);
        evaluated += passing.len() as u64;
        // (index, confidence bucket) of the current best parent.
        let mut best: Option<(usize, u32)> = None;
        for &(sx, c) in passing {
            let x = eligible[sx as usize];
            if x == NO_PARENT {
                continue;
            }
            let x = x as usize;
            if x == y || (df[x] as f64) < min_parent_df {
                continue;
            }
            let cxy = u64::from(c);
            let p_x_given_y = cxy as f64 / df[y] as f64;
            let p_y_given_x = cxy as f64 / df[x] as f64;
            let lift = if base_rate[x] > 0.0 {
                p_x_given_y / base_rate[x]
            } else {
                f64::INFINITY
            };
            if p_x_given_y >= params.threshold && p_y_given_x < 1.0 && lift >= params.min_lift {
                let bucket = (p_x_given_y * 20.0).floor() as u32;
                // Strongest bucket, then most specific, then earliest.
                let better = match best {
                    None => true,
                    Some((b, bb)) => {
                        bucket > bb
                            || (bucket == bb && (df[x] < df[b] || (df[x] == df[b] && x < b)))
                    }
                };
                if better {
                    best = Some((x, bucket));
                }
            }
        }
        parent[y] = best.map(|(x, _)| x);
    }

    // Break any cycles (possible with mutual near-subsumption): walk each
    // chain; on revisit, cut the closing edge. `stamp[t] == start` marks
    // the terms seen on the current walk, so no per-walk set is needed.
    let mut stamp = vec![u32::MAX; n];
    for start in 0..n {
        let mark = start as u32;
        let mut cur = start;
        while let Some(p) = parent[cur] {
            if stamp[p] == mark {
                parent[cur] = None;
                break;
            }
            stamp[cur] = mark;
            cur = p;
        }
    }

    (
        SubsumptionForest {
            terms: terms.to_vec(),
            parent,
        },
        evaluated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Params without the density guards, for small synthetic fixtures
    /// where every term is frequent by construction.
    fn relaxed() -> SubsumptionParams {
        SubsumptionParams {
            threshold: 0.8,
            min_generality_ratio: 1.0,
            max_parent_df_fraction: 1.0,
            min_lift: 0.0,
        }
    }

    /// docs: "politics" appears whenever "election" or "ballot" does,
    /// plus alone; "election" appears whenever "ballot" does, plus alone.
    fn docs() -> Vec<Vec<TermId>> {
        let politics = TermId(0);
        let election = TermId(1);
        let ballot = TermId(2);
        let unrelated = TermId(3);
        vec![
            vec![politics],
            vec![politics, election],
            vec![politics, election, ballot],
            vec![politics, election, ballot],
            vec![unrelated],
            vec![unrelated, politics],
        ]
    }

    #[test]
    fn chain_structure_recovered() {
        let terms = vec![TermId(0), TermId(1), TermId(2), TermId(3)];
        let f = build_subsumption_forest(&terms, docs(), relaxed());
        // ballot → election (most specific subsumer), election → politics.
        assert_eq!(f.parent[2], Some(1));
        assert_eq!(f.parent[1], Some(0));
        assert_eq!(f.parent[0], None);
        assert_eq!(f.parent[3], None);
    }

    #[test]
    fn cooccurring_identical_terms_not_parented() {
        // Two terms always co-occurring: P(x|y)=P(y|x)=1 → no subsumption
        // (the paper's P(y|x) < 1 condition).
        let a = TermId(0);
        let b = TermId(1);
        let docs = vec![vec![a, b], vec![a, b]];
        let f = build_subsumption_forest(&[a, b], &docs, SubsumptionParams::default());
        assert_eq!(f.parent, vec![None, None]);
    }

    #[test]
    fn threshold_controls_edges() {
        // P(x|y) = 2/3 ≈ 0.67, P(y|x) = 2/4 = 0.5: x can subsume y at a
        // loose threshold, never vice versa.
        let x = TermId(0);
        let y = TermId(1);
        let docs = vec![vec![x, y], vec![x, y], vec![y], vec![x], vec![x]];
        let strict = build_subsumption_forest(
            &[x, y],
            &docs,
            SubsumptionParams {
                threshold: 0.8,
                ..relaxed()
            },
        );
        assert_eq!(strict.parent[1], None);
        let loose = build_subsumption_forest(
            &[x, y],
            &docs,
            SubsumptionParams {
                threshold: 0.6,
                ..relaxed()
            },
        );
        assert_eq!(loose.parent[1], Some(0));
    }

    #[test]
    fn absent_terms_are_roots() {
        let f = build_subsumption_forest(
            &[TermId(0), TermId(99)],
            &[vec![TermId(0)]],
            SubsumptionParams::default(),
        );
        assert_eq!(f.parent[1], None);
    }

    #[test]
    fn universal_terms_cannot_parent() {
        // "everywhere" occurs in every doc: with the density guards it is
        // excluded as a parent even though it trivially subsumes "rare".
        let everywhere = TermId(0);
        let rare = TermId(1);
        let docs: Vec<Vec<TermId>> = (0..10)
            .map(|i| {
                if i < 2 {
                    vec![everywhere, rare]
                } else {
                    vec![everywhere]
                }
            })
            .collect();
        let guarded =
            build_subsumption_forest(&[everywhere, rare], &docs, SubsumptionParams::default());
        assert_eq!(guarded.parent[1], None, "universal term must not parent");
        let permissive = build_subsumption_forest(&[everywhere, rare], &docs, relaxed());
        assert_eq!(permissive.parent[1], Some(0));
    }

    #[test]
    fn lift_rejects_chance_cooccurrence() {
        // x is frequent (70%); y co-occurs with it at roughly x's base
        // rate. P(x|y) clears 0.8 but the lift is ~1.1 — rejected.
        let x = TermId(0);
        let y = TermId(1);
        let mut docs: Vec<Vec<TermId>> = Vec::new();
        for i in 0..100 {
            let mut d = Vec::new();
            if i % 10 < 7 {
                d.push(x);
            }
            // y in docs 0..10: 8 of them with x.
            if i < 10 {
                if i < 8 && !d.contains(&x) {
                    d.push(x);
                }
                d.push(y);
            }
            d.sort();
            docs.push(d);
        }
        let f = build_subsumption_forest(
            &[x, y],
            &docs,
            SubsumptionParams {
                min_lift: 1.3,
                ..relaxed()
            },
        );
        assert_eq!(f.parent[1], None, "chance co-occurrence must not subsume");
    }

    /// [`CoCounts::scan`] with the rows cut into `parts` contiguous
    /// ranges at random points (empty ranges included), each counted on
    /// its own, the way the index's scan splits them over its workers.
    fn split_scan(
        terms: &[TermId],
        rows: &RowStore,
        threshold: f64,
        parts: u64,
        rng: &mut proptest::test_runner::TestRng,
    ) -> CoCounts {
        let mut cuts: Vec<usize> = (1..parts)
            .map(|_| rng.below(rows.len() as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        let mut counts = CoCounts::with_slots(terms, threshold);
        let mut start = 0;
        let mut ranges = Vec::new();
        for end in cuts.into_iter().chain([rows.len()]) {
            ranges.push(counts.count_range(rows.iter_from(start).take(end - start)));
            start = end;
        }
        counts.absorb(ranges);
        counts
    }

    /// A table advanced through random enter/leave/append steps counts
    /// exactly what a fresh scan counts, and parent choice over it is
    /// identical. Sizes swing between 2 and 14 terms so the table both
    /// grows and reuses freed slots, and terms leave and re-enter. A scan
    /// split into 1–4 row ranges equals one scan entry for entry, and
    /// the advanced table starts from such a split scan.
    #[test]
    fn advanced_table_equals_fresh_scan() {
        use proptest::test_runner::TestRng;
        const VOCAB: u32 = 24;
        let threshold = SubsumptionParams::default().threshold;
        let mut rng = TestRng::deterministic("advanced_table_equals_fresh_scan");
        for _ in 0..40 {
            let mut rows = RowStore::new();
            let mut postings: Vec<Vec<u32>> = vec![Vec::new(); VOCAB as usize];
            let mut table: Option<CoCounts> = None;
            let mut reused = 0;
            for _ in 0..12 {
                // Append 0–5 rows, each a sorted set over a skewed
                // vocabulary (low symbols are frequent).
                for _ in 0..rng.below(6) {
                    let row: Vec<TermId> = (0..VOCAB)
                        .filter(|&t| rng.below(u64::from(t) + 2) == 0)
                        .map(TermId)
                        .collect();
                    for t in &row {
                        postings[t.index()].push(rows.len() as u32);
                    }
                    rows.push(&row);
                }
                // A fresh candidate set in a random order.
                let size = 2 + rng.below(13) as usize;
                let mut terms: Vec<TermId> = (0..VOCAB).map(TermId).collect();
                for i in (1..terms.len()).rev() {
                    terms.swap(i, rng.below(i as u64 + 1) as usize);
                }
                terms.truncate(size);
                let advanced = match &mut table {
                    Some(t) => {
                        // Entering terms without growth took freed slots.
                        let entering = terms.iter().any(|&x| t.slot(x).is_none());
                        let cap = t.cap;
                        t.advance(&terms, &rows, &postings);
                        reused += usize::from(entering && t.cap == cap);
                        t
                    }
                    None => {
                        let parts = 1 + rng.below(4);
                        table.insert(split_scan(&terms, &rows, threshold, parts, &mut rng))
                    }
                };
                let fresh = CoCounts::scan(&terms, &rows, threshold);
                let parts = 1 + rng.below(4);
                assert_eq!(split_scan(&terms, &rows, threshold, parts, &mut rng), fresh);
                // (df, co-df) of a pair of members; a == b gives df.
                let count = |c: &CoCounts, a: TermId, b: TermId| {
                    let (i, j) = (c.slot(a).unwrap(), c.slot(b).unwrap());
                    if i == j {
                        c.df[i]
                    } else {
                        c.co[i * c.cap + j]
                    }
                };
                assert_eq!(advanced.n_docs, fresh.n_docs);
                for &a in &terms {
                    for &b in &terms {
                        assert_eq!(count(advanced, a, b), count(&fresh, a, b), "({a:?},{b:?})");
                    }
                }
                for params in [SubsumptionParams::default(), relaxed()] {
                    assert_eq!(
                        choose_parents(&terms, advanced, params).parent,
                        choose_parents(&terms, &fresh, params).parent
                    );
                }
            }
            assert!(reused > 0, "freed slots must be reused");
        }
    }

    /// Each member's passing list as terms, members in term order: the
    /// lists of two tables over the same terms compare equal whatever
    /// slots the terms hold.
    fn lists_by_term(c: &CoCounts) -> Vec<(TermId, Vec<TermId>)> {
        let mut out: Vec<(TermId, Vec<TermId>)> = (0..c.cap)
            .filter_map(|s| {
                let t = c.term_of[s]?;
                let mut list: Vec<TermId> = c
                    .list(s)
                    .iter()
                    .map(|&(x, _)| c.term_of[x as usize].unwrap())
                    .collect();
                list.sort_unstable();
                Some((t, list))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Passing lists advanced through leave, stay, enter, growth and slot
    /// reuse equal the lists a fresh scan builds, at thresholds from ones
    /// every count clears to ones none can; and parent choice over the
    /// advanced table equals both references at that threshold. Each
    /// advanced list is ascending and free of repeats and free slots.
    #[test]
    fn passing_lists_equal_a_fresh_scan() {
        use proptest::test_runner::TestRng;
        const VOCAB: u32 = 24;
        let mut rng = TestRng::deterministic("passing_lists_equal_a_fresh_scan");
        let (mut grown, mut reused, mut stayed) = (0, 0, 0);
        for case in 0..60 {
            let threshold = [-0.5, 0.0, 0.3, 0.5, 0.8, 1.0, 1.2][case % 7];
            let mut rows = RowStore::new();
            let mut postings: Vec<Vec<u32>> = vec![Vec::new(); VOCAB as usize];
            let mut table: Option<CoCounts> = None;
            for _ in 0..12 {
                for _ in 0..rng.below(6) {
                    let row: Vec<TermId> = (0..VOCAB)
                        .filter(|&t| rng.below(u64::from(t) / 3 + 2) == 0)
                        .map(TermId)
                        .collect();
                    for t in &row {
                        postings[t.index()].push(rows.len() as u32);
                    }
                    rows.push(&row);
                }
                let size = 2 + rng.below(13) as usize;
                let mut terms: Vec<TermId> = (0..VOCAB).map(TermId).collect();
                for i in (1..terms.len()).rev() {
                    terms.swap(i, rng.below(i as u64 + 1) as usize);
                }
                terms.truncate(size);
                let advanced = match &mut table {
                    Some(t) => {
                        let entering = terms.iter().any(|&x| t.slot(x).is_none());
                        let cap = t.cap;
                        stayed += usize::from(t.n_docs < rows.len());
                        t.advance(&terms, &rows, &postings);
                        grown += usize::from(t.cap > cap);
                        reused += usize::from(entering && t.cap == cap);
                        t
                    }
                    None => table.insert(CoCounts::scan(&terms, &rows, threshold)),
                };
                let fresh = CoCounts::scan(&terms, &rows, threshold);
                assert_eq!(
                    lists_by_term(advanced),
                    lists_by_term(&fresh),
                    "{threshold}"
                );
                for s in 0..advanced.cap {
                    let list = advanced.list(s);
                    assert!(
                        list.windows(2).all(|w| w[0].0 < w[1].0),
                        "slot {s}: {list:?}"
                    );
                    for &(x, c) in list {
                        assert!(advanced.term_of[s].is_some(), "free slot {s}: {x}");
                        assert!(advanced.term_of[x as usize].is_some(), "slot {s}: {x}");
                        assert_eq!(c, advanced.row(s)[x as usize], "slot {s}: {x}");
                    }
                }
                let row_vecs: Vec<Vec<TermId>> = rows.iter().map(<[TermId]>::to_vec).collect();
                for guards in [SubsumptionParams::default(), relaxed()] {
                    let params = SubsumptionParams {
                        threshold,
                        ..guards
                    };
                    let got = choose_parents(&terms, advanced, params).parent;
                    assert_eq!(got, eligible_list_parents(&terms, advanced, params));
                    assert_eq!(got, reference_build(&terms, &row_vecs, params));
                }
            }
        }
        assert!(
            grown > 0 && reused > 0 && stayed > 0,
            "{grown} {reused} {stayed}"
        );
    }

    /// A verbatim copy of the single-function builder that predates the
    /// count table, kept as the reference parent choice must reproduce.
    fn reference_build(
        terms: &[TermId],
        doc_terms: &[Vec<TermId>],
        params: SubsumptionParams,
    ) -> Vec<Option<usize>> {
        let n = terms.len();
        const ABSENT: u32 = u32::MAX;
        let max_sym = terms.iter().map(|t| t.index()).max().map_or(0, |m| m + 1);
        let mut term_pos = vec![ABSENT; max_sym];
        for (i, t) in terms.iter().enumerate() {
            term_pos[t.index()] = i as u32;
        }
        let mut df = vec![0u64; n];
        let mut co = vec![0u64; n * n];
        let mut present: Vec<usize> = Vec::new();
        for d in doc_terms {
            present.clear();
            present.extend(d.iter().filter_map(|t| {
                term_pos
                    .get(t.index())
                    .copied()
                    .filter(|&p| p != ABSENT)
                    .map(|p| p as usize)
            }));
            for &i in &present {
                df[i] += 1;
            }
            for (a, &i) in present.iter().enumerate() {
                for &j in present.iter().skip(a + 1) {
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    co[lo * n + hi] += 1;
                }
            }
        }
        let co_df = |i: usize, j: usize| -> u64 {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            co[lo * n + hi]
        };
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for y in 0..n {
            if df[y] == 0 {
                continue;
            }
            let mut best: Option<(usize, u32)> = None;
            let max_parent_df =
                (params.max_parent_df_fraction * doc_terms.len() as f64).ceil() as u64;
            for x in 0..n {
                if x == y || df[x] == 0 || df[x] > max_parent_df {
                    continue;
                }
                if (df[x] as f64) < params.min_generality_ratio * df[y] as f64 {
                    continue;
                }
                let cxy = co_df(x, y);
                let p_x_given_y = cxy as f64 / df[y] as f64;
                let p_y_given_x = cxy as f64 / df[x] as f64;
                let base_rate = df[x] as f64 / doc_terms.len().max(1) as f64;
                let lift = if base_rate > 0.0 {
                    p_x_given_y / base_rate
                } else {
                    f64::INFINITY
                };
                if p_x_given_y >= params.threshold && p_y_given_x < 1.0 && lift >= params.min_lift {
                    let bucket = (p_x_given_y * 20.0).floor() as u32;
                    let better = match best {
                        None => true,
                        Some((b, bb)) => bucket > bb || (bucket == bb && df[x] < df[b]),
                    };
                    if better {
                        best = Some((x, bucket));
                    }
                }
            }
            parent[y] = best.map(|(x, _)| x);
        }
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut cur = start;
            while let Some(p) = parent[cur] {
                if seen[p] {
                    parent[cur] = None;
                    break;
                }
                seen[cur] = true;
                cur = p;
            }
        }
        parent
    }

    /// A verbatim copy of the parent choice that walked an `eligible:
    /// Vec<(index, slot)>` list in input order, kept as the second
    /// reference for the slot-order scan.
    fn eligible_list_parents(
        terms: &[TermId],
        counts: &CoCounts,
        params: SubsumptionParams,
    ) -> Vec<Option<usize>> {
        let n = terms.len();
        let n_docs = counts.n_docs;
        let slots: Vec<Option<usize>> = terms.iter().map(|&t| counts.slot(t)).collect();
        let df: Vec<u64> = slots
            .iter()
            .map(|s| s.map_or(0, |s| u64::from(counts.df[s])))
            .collect();
        let max_parent_df = (params.max_parent_df_fraction * n_docs as f64).ceil() as u64;
        let base_rate: Vec<f64> = df
            .iter()
            .map(|&d| d as f64 / n_docs.max(1) as f64)
            .collect();
        // The terms that may parent anything, as (index, slot), in order.
        let eligible: Vec<(usize, usize)> = (0..n)
            .filter(|&x| df[x] != 0 && df[x] <= max_parent_df)
            .filter_map(|x| slots[x].map(|s| (x, s)))
            .collect();

        // For each term y, find subsumers and attach to the best one. Two
        // forces must balance: subsumption *strength* (a parent present in all
        // of y's documents beats one that barely clears the threshold — this
        // rejects frequent terms that co-occur by chance) and *specificity*
        // (Sanderson & Croft's transitive reduction: attach to the most
        // specific subsumer). We bucket P(x|y) into 5%-wide confidence bands
        // and pick the most specific subsumer within the strongest band.
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for y in 0..n {
            let Some(sy) = slots[y].filter(|_| df[y] != 0) else {
                continue;
            };
            let row = &counts.co[sy * counts.cap..(sy + 1) * counts.cap];
            let min_parent_df = params.min_generality_ratio * df[y] as f64;
            // The least co-document count that clears the threshold. P(x|y)
            // is monotone in the count, so a smaller count fails the float
            // test below and is skipped without evaluating it.
            let clears = |c: u64| c as f64 / df[y] as f64 >= params.threshold;
            let mut min_co = ((params.threshold * df[y] as f64).ceil() as u64).min(df[y] + 1);
            while min_co > 0 && clears(min_co - 1) {
                min_co -= 1;
            }
            while min_co <= df[y] && !clears(min_co) {
                min_co += 1;
            }
            // (index, confidence bucket) of the current best parent.
            let mut best: Option<(usize, u32)> = None;
            for &(x, sx) in &eligible {
                // Most pairs barely co-occur: test the count first.
                let cxy = u64::from(row[sx]);
                if cxy < min_co || x == y || (df[x] as f64) < min_parent_df {
                    continue;
                }
                let p_x_given_y = cxy as f64 / df[y] as f64;
                let p_y_given_x = cxy as f64 / df[x] as f64;
                let lift = if base_rate[x] > 0.0 {
                    p_x_given_y / base_rate[x]
                } else {
                    f64::INFINITY
                };
                if p_x_given_y >= params.threshold && p_y_given_x < 1.0 && lift >= params.min_lift {
                    let bucket = (p_x_given_y * 20.0).floor() as u32;
                    let better = match best {
                        None => true,
                        Some((b, bb)) => bucket > bb || (bucket == bb && df[x] < df[b]),
                    };
                    if better {
                        best = Some((x, bucket));
                    }
                }
            }
            parent[y] = best.map(|(x, _)| x);
        }

        // Break any cycles (possible with mutual near-subsumption): walk each
        // chain; on revisit, cut the closing edge. `stamp[t] == start` marks
        // the terms seen on the current walk, so no per-walk set is needed.
        let mut stamp = vec![u32::MAX; n];
        for start in 0..n {
            let mark = start as u32;
            let mut cur = start;
            while let Some(p) = parent[cur] {
                if stamp[p] == mark {
                    parent[cur] = None;
                    break;
                }
                stamp[cur] = mark;
                cur = p;
            }
        }

        parent
    }

    /// Every valid subsumer of term `y` under `params`, as (index,
    /// confidence bucket, df), read off `counts` with the reference
    /// builder's rules. Test coverage meter only.
    fn subsumers(
        terms: &[TermId],
        counts: &CoCounts,
        params: SubsumptionParams,
        y: usize,
    ) -> Vec<(usize, u32, u64)> {
        let df = |i: usize| counts.slot(terms[i]).map_or(0, |s| u64::from(counts.df[s]));
        let n_docs = counts.n_docs.max(1) as f64;
        let max_parent_df = (params.max_parent_df_fraction * counts.n_docs as f64).ceil() as u64;
        let (Some(sy), dy) = (counts.slot(terms[y]), df(y)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (x, &tx) in terms.iter().enumerate() {
            let (Some(sx), dx) = (counts.slot(tx), df(x)) else {
                continue;
            };
            if x == y || dy == 0 || dx == 0 || dx > max_parent_df {
                continue;
            }
            if (dx as f64) < params.min_generality_ratio * dy as f64 {
                continue;
            }
            let c = u64::from(counts.co[sy * counts.cap + sx]);
            let p = c as f64 / dy as f64;
            let lift = p / (dx as f64 / n_docs);
            if p >= params.threshold && (c as f64 / dx as f64) < 1.0 && lift >= params.min_lift {
                out.push((x, (p * 20.0).floor() as u32, dx));
            }
        }
        out
    }

    /// The slot-order scan picks, term by term, the parent both references
    /// pick — the reference builder over the rows and the input-order
    /// `eligible`-list walk over the same table — on tables advanced
    /// through growth, slot reuse and churn. The fixtures are checked to
    /// cover the cases the scan must get right: free slots whose stale
    /// column entries clear the threshold, and (bucket, df) ties among a
    /// term's best subsumers whose slot order differs from their input
    /// order, so only the explicit index tie-break picks the right one.
    #[test]
    fn slot_order_scan_matches_both_references_on_churned_tables() {
        use proptest::test_runner::TestRng;
        const BASES: u32 = 16;
        let mut rng = TestRng::deterministic("slot_order_scan_matches_both_references");
        let (mut stale_clears, mut index_ties, mut grown, mut reused) = (0, 0, 0, 0);
        for _ in 0..60 {
            let mut rows = RowStore::new();
            let mut postings: Vec<Vec<u32>> = vec![Vec::new(); 2 * BASES as usize];
            let mut table: Option<CoCounts> = None;
            for _ in 0..14 {
                // Append 0–7 rows over a skewed vocabulary (low bases are
                // frequent). Symbol 2b+1 twins base 2b exactly when b is
                // even, so such twins share df and every co-count.
                for _ in 0..rng.below(8) {
                    let mut row: Vec<TermId> = Vec::new();
                    for b in 0..BASES {
                        if rng.below(u64::from(b) / 2 + 2) == 0 {
                            row.push(TermId(2 * b));
                            if b % 2 == 0 {
                                row.push(TermId(2 * b + 1));
                            }
                        } else if b % 2 == 1 && rng.below(u64::from(b) + 2) == 0 {
                            row.push(TermId(2 * b + 1));
                        }
                    }
                    for t in &row {
                        postings[t.index()].push(rows.len() as u32);
                    }
                    rows.push(&row);
                }
                // A fresh candidate set of 2–20 terms in a random order.
                let size = 2 + rng.below(19) as usize;
                let mut terms: Vec<TermId> = (0..2 * BASES).map(TermId).collect();
                for i in (1..terms.len()).rev() {
                    terms.swap(i, rng.below(i as u64 + 1) as usize);
                }
                terms.truncate(size);
                let counts = match &mut table {
                    Some(t) => {
                        let entering = terms.iter().any(|&x| t.slot(x).is_none());
                        let cap = t.cap;
                        t.advance(&terms, &rows, &postings);
                        grown += usize::from(t.cap > cap);
                        reused += usize::from(entering && t.cap == cap);
                        t
                    }
                    None => table.insert(CoCounts::scan(
                        &terms,
                        &rows,
                        SubsumptionParams::default().threshold,
                    )),
                };
                let row_vecs: Vec<Vec<TermId>> = rows.iter().map(<[TermId]>::to_vec).collect();
                for params in [SubsumptionParams::default(), relaxed()] {
                    let got = choose_parents(&terms, counts, params).parent;
                    let built = reference_build(&terms, &row_vecs, params);
                    let listed = eligible_list_parents(&terms, counts, params);
                    for y in 0..terms.len() {
                        assert_eq!(got[y], built[y], "term {y} {:?} {params:?}", terms[y]);
                        assert_eq!(got[y], listed[y], "term {y} {:?} {params:?}", terms[y]);
                    }
                    for (y, &t) in terms.iter().enumerate() {
                        let (Some(sy), Some(dy)) =
                            (counts.slot(t), counts.slot(t).map(|s| counts.df[s]))
                        else {
                            continue;
                        };
                        let row = &counts.co[sy * counts.cap..(sy + 1) * counts.cap];
                        stale_clears += counts
                            .free
                            .iter()
                            .filter(|&&s| {
                                let c = row[s as usize];
                                dy > 0 && c > 0 && f64::from(c) / f64::from(dy) >= params.threshold
                            })
                            .count();
                        let subs = subsumers(&terms, counts, params, y);
                        let Some(&(_, bucket, df)) = subs
                            .iter()
                            .min_by_key(|&&(x, bucket, df)| (std::cmp::Reverse(bucket), df, x))
                        else {
                            continue;
                        };
                        let tied: Vec<usize> = subs
                            .iter()
                            .filter(|s| s.1 == bucket && s.2 == df)
                            .map(|s| s.0)
                            .collect();
                        let slot = |x: usize| counts.slot(terms[x]);
                        let first_slot = tied.iter().copied().min_by_key(|&x| slot(x));
                        index_ties +=
                            usize::from(tied.len() > 1 && first_slot != tied.first().copied());
                    }
                }
            }
        }
        assert!(grown > 0 && reused > 0, "grown {grown}, reused {reused}");
        assert!(
            stale_clears > 0,
            "no stale free-slot entry cleared the threshold"
        );
        assert!(index_ties > 0, "no tie needed the index tie-break");
    }

    /// Parent choice over a scanned table reproduces the reference
    /// builder and the input-order `eligible`-list walk edge for edge,
    /// across thresholds (including ones every count clears and ones no
    /// count can clear), density guards, and term orders.
    #[test]
    fn parent_choice_matches_reference_builder() {
        use proptest::test_runner::TestRng;
        let mut rng = TestRng::deterministic("parent_choice_matches_reference_builder");
        for _ in 0..300 {
            let vocab = 4 + rng.below(28) as u32;
            let rows: Vec<Vec<TermId>> = (0..1 + rng.below(80))
                .map(|_| {
                    (0..vocab)
                        .filter(|&t| rng.below(u64::from(t % 9) + 2) == 0)
                        .map(TermId)
                        .collect()
                })
                .collect();
            // Candidates in a random order, some absent from every row.
            let mut terms: Vec<TermId> = (0..vocab + 2).map(TermId).collect();
            for i in (1..terms.len()).rev() {
                terms.swap(i, rng.below(i as u64 + 1) as usize);
            }
            terms.truncate(1 + rng.below(terms.len() as u64) as usize);
            let params = SubsumptionParams {
                threshold: [0.0, 0.3, 0.5, 0.55, 0.8, 0.85, 1.0, 1.2][rng.below(8) as usize],
                min_generality_ratio: [1.0, 1.5][rng.below(2) as usize],
                max_parent_df_fraction: [0.5, 0.8, 1.0][rng.below(3) as usize],
                min_lift: [0.0, 1.15][rng.below(2) as usize],
            };
            assert_eq!(
                build_subsumption_forest(&terms, &rows, params).parent,
                reference_build(&terms, &rows, params),
                "{params:?}"
            );
            // Every threshold on the same rows, down to ones that put
            // every member in every passing list, and both references.
            for threshold in [-0.5, 0.0, 0.3, 0.5, 0.55, 0.8, 0.85, 1.0, 1.2] {
                let params = SubsumptionParams {
                    threshold,
                    ..params
                };
                let built = reference_build(&terms, &rows, params);
                let counts = CoCounts::scan(&terms, &rows, threshold);
                assert_eq!(choose_parents(&terms, &counts, params).parent, built);
                assert_eq!(eligible_list_parents(&terms, &counts, params), built);
            }
        }
    }

    #[test]
    fn cycle_breaking_cuts_the_closing_edge() {
        // Every term ≥ 2 docs, mutually near-subsuming under relaxed
        // params with a 0.5 threshold: a and b each clear P ≥ 0.5 of the
        // other, so both pick each other and the walk from a cuts b → a.
        let (a, b) = (TermId(0), TermId(1));
        let docs = vec![vec![a, b], vec![a], vec![b]];
        let params = SubsumptionParams {
            threshold: 0.5,
            ..relaxed()
        };
        let f = build_subsumption_forest(&[a, b], &docs, params);
        assert_eq!(f.parent, vec![Some(1), None]);
    }

    #[test]
    fn empty_inputs() {
        let f = build_subsumption_forest(&[], &RowStore::new(), SubsumptionParams::default());
        assert!(f.terms.is_empty());
        assert!(f.parent.is_empty());
    }
}
