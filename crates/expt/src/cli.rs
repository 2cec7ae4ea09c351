//! Command-line helpers shared by the `repro` and `wfsim` binaries.

/// Edit distance between `a` and `b` (insertions, deletions and
/// substitutions of one `char` each cost 1).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The candidate nearest to `key` within edit distance 3, for a
/// "did you mean" hint on a mistyped option.
pub fn closest<'a>(key: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (levenshtein(key, c), c))
        .filter(|&(d, _)| d <= 3)
        .min()
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_counts_single_char_edits() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("seed", "seed"), 0);
        assert_eq!(levenshtein("otpl-out", "otlp-out"), 2);
        assert_eq!(levenshtein("tiny", ""), 4);
    }

    #[test]
    fn closest_hints_only_near_misses() {
        let known = ["--seed", "--update", "--golden-otlp"];
        assert_eq!(closest("--sede", known.iter().copied()), Some("--seed"));
        assert_eq!(closest("--bench-smoke", known.iter().copied()), None);
    }
}
