//! Pages and the encyclopedia container.

use facet_knowledge::{ConceptId, EntityId, FacetNodeId};
use facet_textkit::lowercase;
use std::collections::HashMap;

/// Index of a page in a [`Wikipedia`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a page is about (for diagnostics; the extraction pipeline only
/// ever sees titles, text, and links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSubject {
    /// A page about a world entity.
    Entity(EntityId),
    /// A page about a facet concept ("Political Leaders").
    Concept(FacetNodeId),
    /// A page about a common-noun concept ("Ballot").
    Noun(ConceptId),
}

/// A Wikipedia page.
#[derive(Debug, Clone)]
pub struct Page {
    /// This page's id.
    pub id: PageId,
    /// Canonical title ("Jacques Chirac", "Political Leaders").
    pub title: String,
    /// Short article text.
    pub text: String,
    /// Outgoing links to other pages.
    pub links: Vec<PageId>,
    /// What the page is about.
    pub subject: PageSubject,
}

/// The synthetic encyclopedia: pages plus a title index.
#[derive(Debug, Default, Clone)]
pub struct Wikipedia {
    pages: Vec<Page>,
    // lint:allow(string-keyed-map, reason="resource-backend boundary: titles arrive as free strings from extractors and redirects; the graph resolves them to PageId exactly once per query")
    by_title: HashMap<String, PageId>,
}

impl Wikipedia {
    /// Create an empty encyclopedia.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a page; the title must be unique.
    ///
    /// # Panics
    /// Panics on duplicate titles (the builder guarantees uniqueness).
    pub fn add_page(&mut self, title: &str, text: String, subject: PageSubject) -> PageId {
        let key = lowercase(title);
        assert!(
            !self.by_title.contains_key(&key),
            "duplicate page title {title}"
        );
        // lint:allow(panic, reason="u32 id-space exhaustion (>4B pages) is unrecoverable and unreachable for the synthetic wiki")
        let id = PageId(u32::try_from(self.pages.len()).expect("too many pages"));
        self.pages.push(Page {
            id,
            title: title.to_string(),
            text,
            links: Vec::new(),
            subject,
        });
        self.by_title.insert(key, id);
        id
    }

    /// Add a directed link `from → to`. Self-links and duplicates are
    /// ignored.
    pub fn add_link(&mut self, from: PageId, to: PageId) {
        if from == to {
            return;
        }
        let links = &mut self.pages[from.index()].links;
        if !links.contains(&to) {
            links.push(to);
        }
    }

    /// The page with the given id.
    pub fn page(&self, id: PageId) -> &Page {
        &self.pages[id.index()]
    }

    /// Find a page by exact title (case-insensitive). Does **not** follow
    /// redirects — see [`crate::redirects::RedirectTable::resolve`].
    pub fn find_title(&self, title: &str) -> Option<PageId> {
        self.by_title.get(&lowercase(title)).copied()
    }

    /// Number of pages (the `N` of the association score).
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if there are no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// All pages in id order.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Total number of links (for diagnostics).
    pub fn link_count(&self) -> usize {
        self.pages.iter().map(|p| p.links.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_find() {
        let mut w = Wikipedia::new();
        let id = w.add_page(
            "Jacques Chirac",
            "President.".into(),
            PageSubject::Entity(EntityId(0)),
        );
        assert_eq!(w.find_title("jacques chirac"), Some(id));
        assert_eq!(w.find_title("JACQUES CHIRAC"), Some(id));
        assert_eq!(w.find_title("nobody"), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_title_panics() {
        let mut w = Wikipedia::new();
        w.add_page(
            "France",
            String::new(),
            PageSubject::Concept(FacetNodeId(0)),
        );
        w.add_page(
            "france",
            String::new(),
            PageSubject::Concept(FacetNodeId(1)),
        );
    }

    #[test]
    fn links_dedupe_and_skip_self() {
        let mut w = Wikipedia::new();
        let a = w.add_page("A", String::new(), PageSubject::Concept(FacetNodeId(0)));
        let b = w.add_page("B", String::new(), PageSubject::Concept(FacetNodeId(1)));
        w.add_link(a, b);
        w.add_link(a, b);
        w.add_link(a, a);
        assert_eq!(w.page(a).links, vec![b]);
        assert_eq!(w.link_count(), 1);
    }
}
