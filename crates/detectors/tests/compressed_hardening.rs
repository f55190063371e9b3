//! Compressed replay on damaged containers. `replay_compressed` walks the
//! top-level sequence as it reads it from the bytes, so it must still
//! reject exactly the containers `read_compressed` rejects, with the same
//! error, and never panic on one that parses: every proper prefix and
//! every single-byte mutation of a recorded container goes through both,
//! under a configuration that sums raw accesses (BigFoot) and one that
//! sums checks (FastTrack).

use bigfoot_bfj::{
    compile, compress, parse_program, read_compressed, CompiledVm, SchedPolicy, TraceWriter,
};
use bigfoot_detectors::{replay_compressed, ProxyTable, ReplayConfig};

/// A two-thread run with locks, loops over arrays and fields, and check
/// statements, recorded and compressed.
fn container() -> Vec<u8> {
    let p = parse_program(
        "class L { field g; }
         class W {
             field x;
             meth work(l, a, n) {
                 for (i = 0; i < n; i = i + 1) {
                     acq(l);
                     for (j = 0; j < 4; j = j + 1) { a[j] = a[j] + i; }
                     this.x = i;
                     check(w: a[0..4], w: this.x);
                     rel(l);
                 }
                 return 0;
             }
         }
         main {
             l = new L; w = new W; v = new W;
             a = new_array(4); b = new_array(4);
             fork t1 = w.work(l, a, 3);
             fork t2 = v.work(l, b, 3);
             join(t1); join(t2);
         }",
    )
    .expect("parse");
    let mut w = TraceWriter::new();
    CompiledVm::new(&compile(&p), SchedPolicy::default())
        .run(&mut w)
        .expect("run");
    compress(&w.into_bytes()).expect("compress")
}

fn configs() -> [(&'static str, ReplayConfig); 2] {
    [
        ("bigfoot", ReplayConfig::bigfoot(ProxyTable::identity(), 1)),
        ("fasttrack", ReplayConfig::fasttrack(1)),
    ]
}

/// Replay of `bytes` fails exactly when parsing does, with its error.
fn assert_parity(bytes: &[u8], what: &str) {
    let parsed = read_compressed(bytes).err();
    for (name, config) in configs() {
        assert_eq!(
            replay_compressed(bytes, &config).err(),
            parsed,
            "{name}: {what}"
        );
    }
}

#[test]
fn every_prefix_fails_in_replay_as_in_parsing() {
    let full = container();
    assert_parity(&full, "the intact container");
    for len in 0..full.len() {
        assert!(read_compressed(&full[..len]).is_err());
        assert_parity(&full[..len], &format!("cut to {len} bytes"));
    }
}

#[test]
fn every_single_byte_mutation_fails_in_replay_as_in_parsing() {
    let full = container();
    for pos in 0..full.len() {
        for value in (0..=u8::MAX).filter(|&v| v != full[pos]) {
            let mut bad = full.clone();
            bad[pos] = value;
            assert_parity(&bad, &format!("byte {pos} set to {value:#04x}"));
        }
    }
}
