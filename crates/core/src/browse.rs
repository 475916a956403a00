//! The faceted browsing engine: OLAP-style slice-and-dice over a text
//! database through the extracted facet hierarchies.
//!
//! The paper frames a faceted interface as "an OLAP-style cube over the
//! text documents" (Section I). The engine supports exactly that: select
//! facet terms (dimensions values), get the matching documents plus the
//! refinement counts for every other facet term — the numbers a faceted
//! UI shows next to each link.
//!
//! It is the one browse implementation. A published
//! [`crate::index::FacetSnapshot`] carries its engine, gathered from the
//! index's per-term postings at publish, and the serving tier
//! ([`crate::serve::fanout_browse`]) answers every query through it. The
//! engine holds one ascending document list
//! per facet term in CSR form (one offsets array, one document array).
//! Selection intersects the lists smallest first; refinement counts
//! intersect sorted lists. Only facet terms — the forest's nodes
//! — select: any other term matches no document.

use crate::hierarchy::{FacetForest, TreeNode};
use facet_corpus::DocId;
use facet_textkit::TermId;

/// A browsing engine over one database and its facet forest.
///
/// Immutable once built: the read path never needs a `&mut` anything.
#[derive(Debug)]
pub struct BrowseEngine {
    forest: FacetForest,
    n_docs: usize,
    /// The facet terms, ascending. The documents carrying `terms[i]` are
    /// `docs[offsets[i]..offsets[i + 1]]`, ascending.
    terms: Vec<TermId>,
    offsets: Vec<usize>,
    docs: Vec<DocId>,
}

impl BrowseEngine {
    /// Gather the engine from per-term postings over `n_docs` documents:
    /// `postings[t]` holds the documents carrying term `t`, ascending.
    /// Terms beyond `postings` carry no documents.
    pub(crate) fn from_postings(forest: FacetForest, n_docs: usize, postings: &[Vec<u32>]) -> Self {
        fn collect(n: &TreeNode, out: &mut Vec<TermId>) {
            out.push(n.term);
            for c in &n.children {
                collect(c, out);
            }
        }
        let mut terms = Vec::new();
        for t in &forest.trees {
            collect(&t.root, &mut terms);
        }
        terms.sort_unstable();
        terms.dedup();
        let list = |t: &TermId| postings.get(t.index()).map_or(&[][..], Vec::as_slice);
        let mut offsets = Vec::with_capacity(terms.len() + 1);
        offsets.push(0);
        let mut docs = Vec::with_capacity(terms.iter().map(|t| list(t).len()).sum());
        for t in &terms {
            docs.extend(list(t).iter().map(|&d| DocId(d)));
            offsets.push(docs.len());
        }
        Self {
            forest,
            n_docs,
            terms,
            offsets,
            docs,
        }
    }

    /// The facet forest.
    pub fn forest(&self) -> &FacetForest {
        &self.forest
    }

    /// Number of documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Documents carrying a facet term, ascending. Empty for a term that
    /// is not a facet term.
    pub fn docs_with(&self, term: TermId) -> &[DocId] {
        match self.terms.binary_search(&term) {
            Ok(i) => &self.docs[self.offsets[i]..self.offsets[i + 1]],
            Err(_) => &[],
        }
    }

    /// Documents matching *all* selected facet terms (the slice/dice
    /// operation), ascending. An empty selection matches every document.
    pub fn select(&self, selection: &[TermId]) -> Vec<DocId> {
        if selection.is_empty() {
            return (0..self.n_docs as u32).map(DocId).collect();
        }
        // Intersect postings, smallest list first.
        let mut lists: Vec<&[DocId]> = selection.iter().map(|&t| self.docs_with(t)).collect();
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<DocId> = lists[0].to_vec();
        for l in &lists[1..] {
            if result.is_empty() {
                break;
            }
            let mut kept = Vec::with_capacity(result.len());
            for_each_common(&result, l, |d| kept.push(d));
            result = kept;
        }
        result
    }

    /// Refinement counts: for the current selection, how many matching
    /// documents each *child* of `node` (or each facet root if `None`)
    /// would retain. This is the "(n)" a faceted UI renders next to each
    /// narrowing link. Zero-count refinements are omitted.
    pub fn refinements(
        &self,
        selection: &[TermId],
        node: Option<&TreeNode>,
    ) -> Vec<(TermId, String, usize)> {
        self.refinements_within(&self.select(selection), node)
    }

    /// [`BrowseEngine::refinements`] over an already selected, ascending
    /// document list `docs`: candidates in the forest's order, zero counts
    /// omitted, sorted by count descending then label ascending.
    pub(crate) fn refinements_within(
        &self,
        docs: &[DocId],
        node: Option<&TreeNode>,
    ) -> Vec<(TermId, String, usize)> {
        let candidates: Vec<&TreeNode> = match node {
            Some(n) => n.children.iter().collect(),
            None => self.forest.trees.iter().map(|t| &t.root).collect(),
        };
        let mut out = Vec::new();
        for c in candidates {
            let list = self.docs_with(c.term);
            // Every document selected: the intersection is the list.
            let count = if docs.len() == self.n_docs {
                list.len()
            } else {
                count_common(docs, list)
            };
            if count > 0 {
                out.push((c.term, self.forest.label(c).to_string(), count));
            }
        }
        out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        out
    }
}

/// Call `f` on every document in both ascending lists, in order. Each
/// element of the shorter list gallops through the longer one, so the
/// cost is O(short · log(long / short)).
fn for_each_common(a: &[DocId], b: &[DocId], mut f: impl FnMut(DocId)) {
    let (short, mut long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    for &d in short {
        if long.is_empty() {
            break;
        }
        let mut bound = 1;
        while bound < long.len() && long[bound] < d {
            bound *= 2;
        }
        match long[..(bound + 1).min(long.len())].binary_search(&d) {
            Ok(i) => {
                f(d);
                long = &long[i + 1..];
            }
            Err(i) => long = &long[i..],
        }
    }
}

/// Number of documents in both ascending lists.
fn count_common(a: &[DocId], b: &[DocId]) -> usize {
    let mut n = 0;
    for_each_common(a, b, |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::FacetTree;
    use facet_textkit::Vocabulary;

    fn engine() -> (BrowseEngine, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let politics = vocab.intern("politics");
        let election = vocab.intern("election");
        let france = vocab.intern("france");
        // Forest: politics → election; france standalone. Labels resolve
        // through the frozen vocabulary the forest carries.
        let forest = FacetForest::new(
            vec![
                FacetTree {
                    root: TreeNode {
                        term: politics,
                        doc_count: 3,
                        children: vec![TreeNode {
                            term: election,
                            doc_count: 2,
                            children: vec![],
                        }],
                    },
                },
                FacetTree {
                    root: TreeNode {
                        term: france,
                        doc_count: 2,
                        children: vec![],
                    },
                },
            ],
            vocab.freeze(),
        );
        // Docs 0–3 carry {politics, election, france}, {politics,
        // election}, {politics} and {france}; postings by interned id.
        let postings = [vec![0, 1, 2], vec![0, 1], vec![0, 3]];
        (BrowseEngine::from_postings(forest, 4, &postings), vocab)
    }

    #[test]
    fn empty_selection_matches_all() {
        let (e, _) = engine();
        assert_eq!(e.select(&[]).len(), 4);
    }

    #[test]
    fn single_term_selection() {
        let (e, vocab) = engine();
        let politics = vocab.get("politics").unwrap();
        assert_eq!(e.select(&[politics]).len(), 3);
    }

    #[test]
    fn slice_and_dice_intersection() {
        let (e, vocab) = engine();
        let election = vocab.get("election").unwrap();
        let france = vocab.get("france").unwrap();
        let docs = e.select(&[election, france]);
        assert_eq!(docs, vec![DocId(0)]);
    }

    #[test]
    fn refinement_counts() {
        let (e, _) = engine();
        // At the top level with no selection: politics(3), france(2).
        let refs = e.refinements(&[], None);
        assert_eq!(refs[0].1, "politics");
        assert_eq!(refs[0].2, 3);
        assert_eq!(refs[1].1, "france");
        assert_eq!(refs[1].2, 2);
    }

    #[test]
    fn refinements_under_selection() {
        let (e, vocab) = engine();
        let france = vocab.get("france").unwrap();
        // With "france" selected, drilling into politics children shows
        // election retaining 1 document.
        let politics_node = e.forest().trees[0].root.clone();
        let refs = e.refinements(&[france], Some(&politics_node));
        assert_eq!(
            refs,
            vec![(vocab.get("election").unwrap(), "election".into(), 1)]
        );
    }

    #[test]
    fn only_facet_terms_select() {
        let (e, mut vocab) = engine();
        let outside = vocab.intern("weather");
        let france = vocab.get("france").unwrap();
        assert!(e.docs_with(outside).is_empty());
        assert!(e.select(&[outside]).is_empty());
        assert!(e.select(&[france, outside]).is_empty());
    }

    #[test]
    fn sorted_list_intersection_matches_a_filter() {
        let ids = |v: &[u32]| v.iter().map(|&d| DocId(d)).collect::<Vec<_>>();
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[1, 2]),
            (&[3], &[0, 1, 2, 3]),
            (&[0, 5, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            (&[1, 3, 5, 7], &[2, 4, 6, 8]),
            (&[2, 4, 6, 8, 100], &[4, 8, 99, 100, 101]),
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
        ];
        for (a, b) in cases {
            let (a, b) = (ids(a), ids(b));
            let want: Vec<DocId> = a.iter().copied().filter(|d| b.contains(d)).collect();
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut got = Vec::new();
                for_each_common(x, y, |d| got.push(d));
                assert_eq!(got, want, "{x:?} ∩ {y:?}");
                assert_eq!(count_common(x, y), want.len());
            }
        }
    }
}
