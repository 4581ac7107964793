//! Seeded P-rule violations (scanned as a panic-free crate).

fn p001_site(v: Option<u32>) -> u32 {
    v.unwrap()
}

fn p002_site(r: Result<u32, u32>) -> u32 {
    r.expect("boom")
}

fn p003_site(flag: bool) {
    if !flag {
        panic!("nope");
    }
}

fn not_flagged(v: Option<u32>) -> u32 {
    // .unwrap() in a comment must not fire
    let s = ".unwrap() and panic!(\"x\") in a string";
    let _ = s.len();
    v.unwrap_or(0)
}

#[cfg(not(test))]
fn production_only(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        Some(1u32).unwrap();
        panic!("fine in test code");
    }
}
