//! SL001 positives: bare asserts. tests/fixtures.rs asserts the exact
//! positions below. `panic!`, `todo!`, `unimplemented!`, `.unwrap()` and
//! `.expect(…)` are clippy's; sl001_ok.rs holds them.

pub fn p1(a: u32) {
    assert!(a > 0); // line 6, col 5
}

pub fn p2(a: u32, b: u32) {
    assert_eq!(a, b); // line 10, col 5
}

pub fn p3(a: u32, b: u32) {
    assert_ne!(a, b); // line 14, col 5
}
