//! SL001 negatives: everything here is legal in library code, as far as
//! sirum-lint is concerned.

/// Doc text may say assert!, panic!, unwrap(), expect(…) freely.
pub fn near_misses(x: Option<u32>) -> Option<u32> {
    let s = "panic! unwrap() expect( assert!"; // strings are opaque
    let r = r#"assert!(false)"#; // raw strings too
    debug_assert!(!s.is_empty()); // internal invariant, out of scope
    let y = x.unwrap_or(0); // unwrap_or is not unwrap
    let z = x.unwrap_or_else(|| y); // nor is unwrap_or_else
    if r.is_empty() {
        unreachable!("logic error, out of scope");
    }
    x.map(|v| v + z)
}

/// clippy's `panic`, `todo`, `unimplemented`, `unwrap_used` and
/// `expect_used` own these forms; SL001 stays silent, so the two tools
/// never report one site.
#[expect(clippy::panic, reason = "fixture: the attribute is not a call")]
pub fn clippys(x: Option<u32>) -> u32 {
    if x.is_none() {
        panic!("clippy::panic");
    }
    if x == Some(1) {
        todo!()
    }
    if x == Some(2) {
        unimplemented!()
    }
    x.expect("clippy::expect_used") + x.unwrap()
}

pub fn blessed(a: u32) {
    assert!(a > 0); // lint:allow(SL001) — fixture: reasoned same-line pragma
}

pub fn blessed_above(a: u32, b: u32) {
    // lint:allow(SL001) — fixture: reasoned line-above pragma
    assert_eq!(a, b);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_assert() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        assert!(v.is_some());
    }
}
