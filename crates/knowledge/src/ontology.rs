//! The ground-truth facet ontology.
//!
//! Ranganathan's definition, quoted in the paper's introduction, calls a
//! facet "a clearly defined, mutually exclusive, and collectively
//! exhaustive aspect, property, or characteristic of a class or specific
//! subject". We model the ontology as a forest: each root is a facet
//! dimension (Location, People, Markets, …, matching Table I of the
//! paper), and descendants are progressively more specific facet terms
//! ("Europe" → "France" → "Paris").
//!
//! The ontology is *latent ground truth*: the extraction pipeline never
//! reads it. It drives the corpus generator, the synthetic external
//! resources, and the simulated annotators.

use facet_textkit::lowercase;
use std::collections::HashMap;

/// Index of a node in a [`FacetOntology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FacetNodeId(pub u32);

impl FacetNodeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single facet term in the ontology tree.
#[derive(Debug, Clone)]
pub struct FacetNode {
    /// This node's id.
    pub id: FacetNodeId,
    /// The facet term, normalized lowercase ("political leaders").
    pub term: String,
    /// Parent node; `None` for facet roots (dimensions).
    pub parent: Option<FacetNodeId>,
    /// Child nodes.
    pub children: Vec<FacetNodeId>,
    /// Depth from the root (roots have depth 0).
    pub depth: u32,
}

/// A forest of facet dimensions with fast term lookup.
#[derive(Debug, Default, Clone)]
pub struct FacetOntology {
    nodes: Vec<FacetNode>,
    roots: Vec<FacetNodeId>,
    by_term: HashMap<String, FacetNodeId>,
}

impl FacetOntology {
    /// Create an empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a root facet dimension. Terms must be unique across the whole
    /// ontology; adding a duplicate term returns the existing node's id.
    pub fn add_root(&mut self, term: &str) -> FacetNodeId {
        self.add_node(term, None)
    }

    /// Add a child facet term under `parent`.
    ///
    /// # Panics
    /// Panics if `parent` is not a valid node id.
    pub fn add_child(&mut self, parent: FacetNodeId, term: &str) -> FacetNodeId {
        assert!(parent.index() < self.nodes.len(), "invalid parent node");
        self.add_node(term, Some(parent))
    }

    fn add_node(&mut self, term: &str, parent: Option<FacetNodeId>) -> FacetNodeId {
        let term = lowercase(term);
        if let Some(&existing) = self.by_term.get(&term) {
            return existing;
        }
        let id = FacetNodeId(u32::try_from(self.nodes.len()).expect("ontology overflow"));
        let depth = parent.map_or(0, |p| self.nodes[p.index()].depth + 1);
        self.nodes.push(FacetNode {
            id,
            term: term.clone(),
            parent,
            children: Vec::new(),
            depth,
        });
        match parent {
            Some(p) => self.nodes[p.index()].children.push(id),
            None => self.roots.push(id),
        }
        self.by_term.insert(term, id);
        id
    }

    /// The node with the given id.
    pub fn node(&self, id: FacetNodeId) -> &FacetNode {
        &self.nodes[id.index()]
    }

    /// Look up a facet term (case-insensitive).
    pub fn find(&self, term: &str) -> Option<FacetNodeId> {
        self.by_term.get(&lowercase(term)).copied()
    }

    /// True if `term` is a facet term anywhere in the ontology.
    pub fn contains_term(&self, term: &str) -> bool {
        self.find(term).is_some()
    }

    /// All root (dimension) nodes.
    pub fn roots(&self) -> &[FacetNodeId] {
        &self.roots
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over all nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &FacetNode> {
        self.nodes.iter()
    }

    /// The chain of ancestors of `id`, nearest first, excluding `id`
    /// itself, ending at the root.
    pub fn ancestors(&self, id: FacetNodeId) -> Vec<FacetNodeId> {
        let mut out = Vec::new();
        let mut cur = self.nodes[id.index()].parent;
        while let Some(p) = cur {
            out.push(p);
            cur = self.nodes[p.index()].parent;
        }
        out
    }

    /// The path from the root to `id`, inclusive (root first).
    pub fn path(&self, id: FacetNodeId) -> Vec<FacetNodeId> {
        let mut p = self.ancestors(id);
        p.reverse();
        p.push(id);
        p
    }

    /// The root dimension that `id` belongs to.
    pub fn root_of(&self, id: FacetNodeId) -> FacetNodeId {
        *self.path(id).first().expect("path is never empty")
    }

    /// True if `a` is a strict ancestor of `b`.
    pub fn is_ancestor(&self, a: FacetNodeId, b: FacetNodeId) -> bool {
        let mut cur = self.nodes[b.index()].parent;
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.nodes[p.index()].parent;
        }
        false
    }

    /// All facet terms as strings (id order).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(|n| n.term.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (FacetOntology, FacetNodeId, FacetNodeId, FacetNodeId) {
        let mut o = FacetOntology::new();
        let loc = o.add_root("location");
        let eu = o.add_child(loc, "Europe");
        let fr = o.add_child(eu, "France");
        (o, loc, eu, fr)
    }

    #[test]
    fn terms_are_lowercased_and_unique() {
        let (mut o, loc, eu, _) = sample();
        assert_eq!(o.node(eu).term, "europe");
        // Duplicate term returns existing id even with different case.
        assert_eq!(o.add_child(loc, "EUROPE"), eu);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn parent_child_links() {
        let (o, loc, eu, fr) = sample();
        assert_eq!(o.node(fr).parent, Some(eu));
        assert_eq!(o.node(loc).children, vec![eu]);
        assert_eq!(o.node(loc).depth, 0);
        assert_eq!(o.node(fr).depth, 2);
    }

    #[test]
    fn ancestors_and_path() {
        let (o, loc, eu, fr) = sample();
        assert_eq!(o.ancestors(fr), vec![eu, loc]);
        assert_eq!(o.path(fr), vec![loc, eu, fr]);
        assert_eq!(o.root_of(fr), loc);
        assert_eq!(o.root_of(loc), loc);
    }

    #[test]
    fn ancestry_predicate() {
        let (o, loc, eu, fr) = sample();
        assert!(o.is_ancestor(loc, fr));
        assert!(o.is_ancestor(eu, fr));
        assert!(!o.is_ancestor(fr, eu));
        assert!(!o.is_ancestor(fr, fr));
    }

    #[test]
    fn find_is_case_insensitive() {
        let (o, _, eu, _) = sample();
        assert_eq!(o.find("Europe"), Some(eu));
        assert_eq!(o.find("europe"), Some(eu));
        assert_eq!(o.find("mars"), None);
        assert!(o.contains_term("france"));
    }

    #[test]
    fn multiple_roots() {
        let mut o = FacetOntology::new();
        let a = o.add_root("location");
        let b = o.add_root("people");
        assert_eq!(o.roots(), &[a, b]);
    }
}
