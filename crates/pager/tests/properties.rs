//! Property tests of the paging substrate.

use birch_pager::{decode_page, encode_page, PageKind, PageLayout, NO_NEIGHBOR};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fan-outs derived from any sane page size / dimension are usable and
    /// monotone in the page size.
    #[test]
    fn layout_fanouts_sane(page_kb in 1usize..64, dim in 1usize..32) {
        let page = page_kb * 1024;
        let l = PageLayout::new(page, dim);
        prop_assert!(l.branching_factor() >= 2);
        prop_assert!(l.leaf_capacity() >= 2);
        // A leaf entry is smaller than an interior entry, so L >= B - 1
        // (the chain overhead can cost at most one entry).
        prop_assert!(l.leaf_capacity() + 1 >= l.branching_factor());
        // Doubling the page size at least preserves fan-outs.
        let l2 = PageLayout::new(page * 2, dim);
        prop_assert!(l2.branching_factor() >= l.branching_factor());
        prop_assert!(l2.leaf_capacity() >= l.leaf_capacity());
        // Entry sizes scale with d.
        prop_assert_eq!(l.cf_entry_bytes(), 8 * (dim + 2));
    }

    /// A full node of either kind plus one row, encoded with the page
    /// codec, fits the slot `PageLayout::slot_bytes` gives a layout's B
    /// and L — for every (page, dim) the benches use, at the one CF width
    /// of 2d + 3 words — and round-trips.
    #[test]
    fn encoded_full_node_fits_physical_page(page_kb in 1usize..17, dim in 1usize..65) {
        let l = PageLayout::new(page_kb * 1024, dim);
        let cf_words = 2 * dim + 3;
        let slot = PageLayout::slot_bytes(l.branching_factor(), l.leaf_capacity(), cf_words);

        // A leaf mid-split: L + 1 entries of cf_words each.
        let rows = l.leaf_capacity() + 1;
        let leaf_words: Vec<u64> = (0..rows * cf_words).map(|i| i as u64).collect();
        let leaf = encode_page(
            slot, PageKind::Leaf, rows as u32, 7, NO_NEIGHBOR, &leaf_words,
        ).expect("a full leaf plus one row must fit the slot");
        prop_assert_eq!(leaf.len(), slot);
        let got = decode_page(&leaf, cf_words).unwrap();
        prop_assert_eq!(got.words, leaf_words);
        prop_assert_eq!(got.prev, 7);
        prop_assert_eq!(got.next, NO_NEIGHBOR);

        // An interior node mid-split: B + 1 entries of cf_words + 1
        // (child pointer) each.
        let row = cf_words + 1;
        let rows = l.branching_factor() + 1;
        let int_words: Vec<u64> = (0..rows * row).map(|i| !(i as u64)).collect();
        let interior = encode_page(
            slot, PageKind::Interior, rows as u32, NO_NEIGHBOR, NO_NEIGHBOR, &int_words,
        ).expect("a full interior node plus one row must fit the slot");
        prop_assert_eq!(interior.len(), slot);
        let got = decode_page(&interior, row).unwrap();
        prop_assert_eq!(got.words, int_words);
    }
}
