// C1 fixture: fork-join parallelism outside sanctioned sites.
pub fn violation(left: &[u64], right: &[u64]) -> u64 {
    let (a, b) = rayon::join(|| left.iter().sum::<u64>(), || right.iter().sum::<u64>());
    a + b
}
