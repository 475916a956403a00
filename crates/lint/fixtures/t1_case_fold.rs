// T1 fixture: case folds outside facet_textkit.

pub fn keys(title: &str, word: &str) -> (String, String) {
    let key = title.to_lowercase();
    let words: Vec<String> = title.split(' ').map(str::to_ascii_lowercase).collect();
    (key, words.join(" ") + word)
}

pub fn fold_in_place(mut s: String) -> String {
    s.make_ascii_lowercase();
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_fold() {
        assert_eq!("A".to_lowercase(), "a");
    }
}
