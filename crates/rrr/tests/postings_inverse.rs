//! [`Postings`] against a naive `Vec<Vec<u32>>` inverse: whatever the sets'
//! representation (default policy, all lists, all bitmaps) and whatever form
//! each vertex takes (row threshold forced to all-list, all-row, or the
//! real `range_len / 32`, or a mixed one), `for_each`/`ids`, `contains`,
//! `degree`, `count_below`, `or_into` and `count_outside` must read exactly
//! the naive inverse. Degrees counted batch by batch equal the inverse's,
//! and a build from them equals a build, array for array.

use imm_rrr::{count_memberships, AdaptivePolicy, Postings, RrrCollection};
use proptest::prelude::*;

const NUM_NODES: usize = 150;

/// `inverse[v]` = ids of the sets of `raw` containing `v`, ascending.
fn naive_inverse(raw: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut inverse = vec![Vec::new(); NUM_NODES];
    for (sid, set) in raw.iter().enumerate() {
        for &v in set {
            inverse[v as usize].push(sid as u32);
        }
    }
    inverse
}

fn bits_of(acc: &[u64]) -> Vec<u32> {
    (0..acc.len() as u32 * 64).filter(|&i| acc[(i / 64) as usize] >> (i % 64) & 1 == 1).collect()
}

fn assert_reads_the_inverse(postings: &Postings, inverse: &[Vec<u32>], probes: &[u32]) {
    let view = postings.view();
    let mut entries = 0u64;
    for (v, expected) in inverse.iter().enumerate() {
        let v = v as u32;
        assert_eq!(&postings.ids(v), expected, "ids of vertex {v}");
        let mut walked = Vec::new();
        postings.for_each(v, |id| walked.push(id));
        assert_eq!(&walked, expected, "for_each of vertex {v}");
        let held: Vec<u32> =
            (0..postings.range_len() as u32).filter(|&sid| view.contains(v, sid)).collect();
        assert_eq!(&held, expected, "contains of vertex {v}");
        assert_eq!(postings.degree(v), expected.len() as u64, "degree of vertex {v}");
        for end in 0..=postings.range_len() as u32 {
            let below = expected.iter().filter(|&&id| id < end).count() as u64;
            assert_eq!(view.count_below(v, end), below, "count_below({v}, {end})");
        }
        entries += expected.len() as u64;
    }
    assert_eq!(postings.entries(), entries);
    let stats = postings.stats();
    let in_rows: usize = (0..NUM_NODES as u32)
        .filter(|&v| postings.is_row(v))
        .map(|v| inverse[v as usize].len())
        .sum();
    assert_eq!(stats.list_entries + in_rows, entries as usize);

    // A running union over the probes: every OR reports exactly the sets it
    // added, and `count_outside` predicts it without changing anything.
    let mut acc = vec![0u64; postings.words_per_row()];
    let mut union = std::collections::BTreeSet::new();
    for &v in probes {
        let outside = inverse[v as usize].iter().filter(|id| !union.contains(*id)).count();
        assert_eq!(view.count_outside(v, &acc), outside, "count_outside({v})");
        assert_eq!(view.or_into(v, &mut acc), outside, "or_into({v})");
        union.extend(inverse[v as usize].iter().copied());
        assert_eq!(bits_of(&acc), union.iter().copied().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_form_reads_the_naive_inverse(
        // Up to 140 sets: more than 64 cross a row-word boundary.
        // Up to 120 of 150 vertices per set: the default policy stores the
        // ones of 64+ members as bitmaps and the rest as lists.
        raw_sets in proptest::collection::vec(
            proptest::collection::hash_set(0u32..NUM_NODES as u32, 0..120),
            0..140,
        ),
        policy in 0usize..3,
        probes in proptest::collection::vec(0u32..NUM_NODES as u32, 0..12),
        split in 0usize..140,
    ) {
        let raw: Vec<Vec<u32>> = raw_sets
            .iter()
            .map(|set| {
                let mut members: Vec<u32> = set.iter().copied().collect();
                members.sort_unstable();
                members
            })
            .collect();
        let policy = [
            AdaptivePolicy::default(),
            AdaptivePolicy::always_sorted(),
            AdaptivePolicy::always_bitmap(),
        ][policy];
        let mut sets = RrrCollection::new(NUM_NODES);
        for members in &raw {
            sets.push_vertices(members.clone(), &policy);
        }

        let inverse = naive_inverse(&raw);
        let adaptive = Postings::build(&sets).unwrap();
        assert_reads_the_inverse(&adaptive, &inverse, &probes);
        for v in 0..NUM_NODES as u32 {
            prop_assert_eq!(adaptive.is_row(v), inverse[v as usize].len() > raw.len() / 32);
        }
        // All lists, all rows, and a mix cut at the median-ish degree 3.
        for threshold in [usize::MAX, 0, 3] {
            let forced = Postings::build_with_threshold(&sets, threshold).unwrap();
            assert_reads_the_inverse(&forced, &inverse, &probes);
            prop_assert_eq!(&forced, &adaptive);
        }

        // Degrees counted in two batches (cut anywhere, not only at a block
        // of 64) are the inverse's, and a build from them is a build.
        let split = split.min(raw.len());
        let mut degrees = vec![0u32; NUM_NODES];
        let mut head = RrrCollection::new(NUM_NODES);
        for members in &raw[..split] {
            head.push_vertices(members.clone(), &policy);
        }
        count_memberships(&head, 0, &mut degrees).unwrap();
        count_memberships(&sets, split, &mut degrees).unwrap();
        let naive: Vec<u32> = inverse.iter().map(|ids| ids.len() as u32).collect();
        prop_assert_eq!(&degrees, &naive);
        let known = Postings::build_with_degrees(&sets, &degrees).unwrap();
        prop_assert_eq!(known.sections(), adaptive.sections());
        prop_assert_eq!(known.entries(), adaptive.entries());
    }
}
