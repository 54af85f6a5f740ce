//! Answer checking. Served answers are reduced to a digest of their
//! canonical form right after the call returns (outside its span) and
//! compared with the digest of the brute-force answer: report classes as a
//! set (order-free, so the served order needs no sort), ranked and
//! aggregate classes as a sequence (their order is part of the answer).

use lcrs_engine::Query;

use crate::stats::mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

/// Digest of a set of ids: equal for any order of the same ids.
pub fn set_digest(ids: &[u64]) -> Digest {
    let (mut sum, mut xor) = (0u64, 0u64);
    for &id in ids {
        let h = mix(id);
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
    }
    Digest { len: ids.len(), hash: sum ^ xor.wrapping_mul(0x9e37_79b9_7f4a_7c15) }
}

/// Digest of a sequence: order matters.
pub fn seq_digest(ids: &[u64]) -> Digest {
    let hash = ids.iter().fold(0x243f_6a88_85a3_08d3u64, |h, &id| mix(h ^ id));
    Digest { len: ids.len(), hash }
}

/// Digest of `ids` as an answer to `q`, in the canonical form
/// `lcrs_bench::canon_answer` defines.
pub fn answer_digest(q: &Query, ids: &[u64]) -> Digest {
    if q.is_ranked() || q.is_aggregate() {
        seq_digest(ids)
    } else {
        set_digest(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_digest_ignores_order_but_ranked_does_not() {
        let hp = Query::Halfplane { m: 1, c: 0, inclusive: false };
        assert_eq!(answer_digest(&hp, &[3, 1, 2]), answer_digest(&hp, &[1, 2, 3]));
        assert_ne!(answer_digest(&hp, &[1, 2, 3]), answer_digest(&hp, &[1, 2, 4]));
        assert_ne!(answer_digest(&hp, &[1, 2]), answer_digest(&hp, &[1, 2, 2]));
        let knn = Query::Knn { x: 0, y: 0, k: 3 };
        assert_ne!(answer_digest(&knn, &[3, 1, 2]), answer_digest(&knn, &[1, 2, 3]));
        assert_eq!(answer_digest(&knn, &[3, 1, 2]), answer_digest(&knn, &[3, 1, 2]));
    }
}
