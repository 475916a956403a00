//! Redirect pages: alternative titles resolving to canonical pages.
//!
//! The paper exploits redirects twice: to widen the Wikipedia term
//! extractor's title matching ("Hillary R. Clinton" matches the page
//! "Hillary Rodham Clinton"), and as the high-precision half of the
//! Wikipedia Synonyms resource.

use crate::page::PageId;
use facet_textkit::lowercase;
use std::collections::HashMap;

/// Map from redirect titles to canonical page ids, plus the reverse
/// grouping (canonical page → all redirect titles).
#[derive(Debug, Default, Clone)]
pub struct RedirectTable {
    // lint:allow(string-keyed-map, reason="resource-backend boundary: redirect titles are free-string aliases resolved to PageId before any pipeline use; never iterated into output")
    forward: HashMap<String, PageId>,
    reverse: HashMap<PageId, Vec<String>>,
}

impl RedirectTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `variant` as a redirect to `target`. Case-insensitive on
    /// the variant; the stored variant keeps its original casing for
    /// display. Re-registering the same variant is a no-op.
    pub fn add(&mut self, variant: &str, target: PageId) {
        let key = lowercase(variant);
        if self.forward.contains_key(&key) {
            return;
        }
        self.forward.insert(key, target);
        self.reverse
            .entry(target)
            .or_default()
            .push(variant.to_string());
    }

    /// Resolve a title through the redirect table. Returns the canonical
    /// page if `title` is a redirect, else `None`.
    pub fn resolve(&self, title: &str) -> Option<PageId> {
        self.forward.get(&lowercase(title)).copied()
    }

    /// All redirect titles pointing at `target` (the redirect synonym
    /// group, excluding the canonical title itself).
    pub fn group(&self, target: PageId) -> &[String] {
        self.reverse.get(&target).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of redirect entries.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if there are no redirects.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_and_group() {
        let mut r = RedirectTable::new();
        let target = PageId(7);
        r.add("Hillary Clinton", target);
        r.add("Hillary R. Clinton", target);
        assert_eq!(r.resolve("hillary clinton"), Some(target));
        assert_eq!(r.resolve("HILLARY R. CLINTON"), Some(target));
        assert_eq!(r.resolve("Bill Clinton"), None);
        let group = r.group(target);
        assert_eq!(group.len(), 2);
        assert!(group.contains(&"Hillary Clinton".to_string()));
    }

    #[test]
    fn duplicate_registration_ignored() {
        let mut r = RedirectTable::new();
        r.add("X", PageId(1));
        r.add("x", PageId(2));
        assert_eq!(r.resolve("X"), Some(PageId(1)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_group() {
        let r = RedirectTable::new();
        assert!(r.group(PageId(0)).is_empty());
        assert!(r.is_empty());
    }
}
