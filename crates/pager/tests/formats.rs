//! Golden pins of the on-disk byte formats: a BPG1 leaf page, a BPG1
//! interior page and a one-section BIRCHSN1 snapshot, compared byte for
//! byte (CRCs included) with encodings recorded from a build that used
//! the bytewise reference CRC-32. Spill files, snapshots and outlier
//! journals written by any earlier build must stay readable, so not one
//! byte may move.

use birch_pager::{encode_page, PageKind, SnapshotWriter, NO_NEIGHBOR};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn leaf_page_bytes_are_pinned() {
    let words = [
        1.0f64.to_bits(),
        2.5f64.to_bits(),
        (-3.25f64).to_bits(),
        4.0f64.to_bits(),
        0x0123_4567_89AB_CDEF,
        0,
    ];
    let page = encode_page(96, PageKind::Leaf, 2, 7, NO_NEIGHBOR, &words).unwrap();
    assert_eq!(
        hex(&page),
        "4250473101000000020000006cf6d21f0700000000000000ffffffffffffffff\
         000000000000f03f00000000000004400000000000000ac00000000000001040\
         efcdab8967452301000000000000000000000000000000000000000000000000"
    );
}

#[test]
fn interior_page_bytes_are_pinned() {
    let words = [1.5f64.to_bits(), (-0.25f64).to_bits(), 9];
    let page = encode_page(72, PageKind::Interior, 1, NO_NEIGHBOR, NO_NEIGHBOR, &words).unwrap();
    assert_eq!(
        hex(&page),
        "42504731010001000100000099f297a6ffffffffffffffffffffffffffffffff\
         000000000000f83f000000000000d0bf09000000000000000000000000000000\
         0000000000000000"
    );
}

#[test]
fn one_section_snapshot_bytes_are_pinned() {
    let path =
        std::env::temp_dir().join(format!("birch-format-pin-{}.snapshot", std::process::id()));
    let mut w = SnapshotWriter::new();
    w.add_section(*b"META", (0u8..20).collect());
    w.finish(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        hex(&bytes),
        "4249524348534e3101000000010000004d4554411400000000000000e4f5fd41\
         000102030405060708090a0b0c0d0e0f10111213"
    );
}
