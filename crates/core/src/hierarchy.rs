//! The facet hierarchy model: trees over the selected facet terms,
//! materialized from a subsumption forest.
//!
//! Nodes carry only the [`TermId`] symbol; the forest holds one
//! [`FrozenVocabulary`] and resolves display labels through it at the
//! serving edge ([`FacetForest::label`], [`FacetForest::edges`],
//! [`FacetForest::render`]). One shared arena replaces the old
//! per-node `label: String` clone — a forest of N nodes used to carry N
//! heap strings duplicating the vocabulary.

use crate::subsumption::SubsumptionForest;
use facet_textkit::{FrozenVocabulary, TermId};

/// One node in a facet tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The facet term.
    pub term: TermId,
    /// Documents carrying the term (in the contextualized database).
    pub doc_count: u64,
    /// Child nodes, sorted by descending document count (label
    /// tie-break).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// Number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TreeNode::size).sum::<usize>()
    }

    /// Depth of the deepest leaf below this node (0 for a leaf).
    pub fn height(&self) -> usize {
        self.children
            .iter()
            .map(|c| c.height() + 1)
            .max()
            .unwrap_or(0)
    }
}

/// One facet: a tree rooted at a top-level facet term.
#[derive(Debug, Clone)]
pub struct FacetTree {
    /// The root node.
    pub root: TreeNode,
}

/// The full faceted structure: one tree per facet, ordered by descending
/// root document count (most prominent facet first), plus the frozen
/// vocabulary that resolves every node's display label.
#[derive(Debug, Clone, Default)]
pub struct FacetForest {
    /// The facet trees.
    pub trees: Vec<FacetTree>,
    vocab: FrozenVocabulary,
}

impl FacetForest {
    /// Assemble a forest from trees and the frozen vocabulary resolving
    /// their terms.
    pub fn new(trees: Vec<FacetTree>, vocab: FrozenVocabulary) -> Self {
        Self { trees, vocab }
    }

    /// The frozen vocabulary resolving this forest's terms.
    pub fn vocab(&self) -> &FrozenVocabulary {
        &self.vocab
    }

    /// The display label of a node of this forest (empty for a foreign
    /// node whose term the forest's vocabulary never saw).
    pub fn label(&self, node: &TreeNode) -> &str {
        self.vocab.try_term(node.term).unwrap_or("")
    }

    /// Materialize a forest from a subsumption structure.
    ///
    /// `doc_count(t)` supplies each term's document count (typically
    /// `df_C`); `vocab` supplies labels for the sort tie-breaks and is
    /// retained by the forest for display-time resolution.
    pub fn from_subsumption(
        forest: &SubsumptionForest,
        vocab: &FrozenVocabulary,
        doc_count: impl Fn(TermId) -> u64,
    ) -> Self {
        fn build(
            i: usize,
            forest: &SubsumptionForest,
            kids: &[Vec<usize>],
            vocab: &FrozenVocabulary,
            doc_count: &impl Fn(TermId) -> u64,
        ) -> TreeNode {
            let term = forest.terms[i];
            let mut children: Vec<TreeNode> = kids[i]
                .iter()
                .map(|&c| build(c, forest, kids, vocab, doc_count))
                .collect();
            children.sort_by(|a, b| {
                b.doc_count
                    .cmp(&a.doc_count)
                    .then_with(|| vocab.term(a.term).cmp(vocab.term(b.term)))
            });
            TreeNode {
                term,
                doc_count: doc_count(term),
                children,
            }
        }
        // Children of every node, bucketed in one pass in ascending index
        // order, which the stable sort below keeps for ties.
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); forest.terms.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, p) in forest.parent.iter().enumerate() {
            match *p {
                Some(p) => kids[p].push(i),
                None => roots.push(i),
            }
        }
        let mut trees: Vec<FacetTree> = roots
            .into_iter()
            .map(|r| FacetTree {
                root: build(r, forest, &kids, vocab, &doc_count),
            })
            .collect();
        trees.sort_by(|a, b| {
            b.root
                .doc_count
                .cmp(&a.root.doc_count)
                .then_with(|| vocab.term(a.root.term).cmp(vocab.term(b.root.term)))
        });
        Self {
            trees,
            vocab: vocab.clone(),
        }
    }

    /// Total number of terms across all trees.
    pub fn total_terms(&self) -> usize {
        self.trees.iter().map(|t| t.root.size()).sum()
    }

    /// Find a node anywhere in the forest by label.
    pub fn find(&self, label: &str) -> Option<&TreeNode> {
        fn walk(node: &TreeNode, term: TermId) -> Option<&TreeNode> {
            if node.term == term {
                return Some(node);
            }
            node.children.iter().find_map(|c| walk(c, term))
        }
        // Interning is one-to-one, so the label's symbol names its node.
        let term = self.vocab.get(label)?;
        self.trees.iter().find_map(|t| walk(&t.root, term))
    }

    /// All `(parent label, child label)` edges in the forest.
    pub fn edges(&self) -> Vec<(String, String)> {
        fn walk(node: &TreeNode, forest: &FacetForest, out: &mut Vec<(String, String)>) {
            for c in &node.children {
                out.push((forest.label(node).to_string(), forest.label(c).to_string()));
                walk(c, forest, out);
            }
        }
        let mut out = Vec::new();
        for t in &self.trees {
            walk(&t.root, self, &mut out);
        }
        out
    }

    /// Render the forest as an indented text outline (for reports and the
    /// examples).
    pub fn render(&self, max_children: usize) -> String {
        fn walk(
            node: &TreeNode,
            forest: &FacetForest,
            depth: usize,
            max_children: usize,
            out: &mut String,
        ) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} ({})\n", forest.label(node), node.doc_count));
            for c in node.children.iter().take(max_children) {
                walk(c, forest, depth + 1, max_children, out);
            }
            if node.children.len() > max_children {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!("… {} more\n", node.children.len() - max_children));
            }
        }
        let mut out = String::new();
        for t in &self.trees {
            walk(&t.root, self, 0, max_children, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsumption::{build_subsumption_forest, SubsumptionParams};
    use facet_textkit::Vocabulary;

    fn forest() -> (FacetForest, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let politics = vocab.intern("politics");
        let election = vocab.intern("election");
        let ballot = vocab.intern("ballot");
        let docs = vec![
            vec![politics],
            vec![politics, election],
            vec![politics, election, ballot],
            vec![politics, election, ballot],
        ];
        let sub = build_subsumption_forest(
            &[politics, election, ballot],
            &docs,
            SubsumptionParams {
                threshold: 0.8,
                min_generality_ratio: 1.0,
                max_parent_df_fraction: 1.0,
                min_lift: 0.0,
            },
        );
        let df = move |t: TermId| match t.0 {
            0 => 4u64,
            1 => 3,
            _ => 2,
        };
        (
            FacetForest::from_subsumption(&sub, &vocab.freeze(), df),
            vocab,
        )
    }

    #[test]
    fn tree_shape() {
        let (f, _) = forest();
        assert_eq!(f.trees.len(), 1);
        let root = &f.trees[0].root;
        assert_eq!(f.label(root), "politics");
        assert_eq!(f.label(&root.children[0]), "election");
        assert_eq!(f.label(&root.children[0].children[0]), "ballot");
        assert_eq!(f.total_terms(), 3);
        assert_eq!(root.height(), 2);
    }

    #[test]
    fn find_and_edges() {
        let (f, _) = forest();
        assert!(f.find("ballot").is_some());
        assert!(f.find("nothing").is_none());
        let edges = f.edges();
        assert!(edges.contains(&("politics".into(), "election".into())));
        assert!(edges.contains(&("election".into(), "ballot".into())));
    }

    #[test]
    fn render_outline() {
        let (f, _) = forest();
        let text = f.render(10);
        assert!(text.contains("politics (4)"));
        assert!(text.contains("  election (3)"));
    }

    #[test]
    fn labels_resolve_through_the_shared_vocab() {
        // One frozen arena serves every node: no per-node label strings.
        let (f, vocab) = forest();
        for t in &f.trees {
            assert_eq!(f.label(&t.root), vocab.term(t.root.term));
        }
        // A foreign term id resolves to the empty label, not a panic.
        let foreign = TreeNode {
            term: TermId(9999),
            doc_count: 0,
            children: vec![],
        };
        assert_eq!(f.label(&foreign), "");
    }

    #[test]
    fn empty_forest() {
        let f = FacetForest::default();
        assert_eq!(f.total_terms(), 0);
        assert!(f.edges().is_empty());
        assert_eq!(f.render(5), "");
        assert!(f.vocab().is_empty());
    }
}
