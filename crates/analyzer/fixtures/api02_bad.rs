// API02 fixture: public items that no non-test code calls.

pub fn orphan() -> u32 { //~ API02
    7
}

pub const ORPHAN_LIMIT: usize = 3; //~ API02

// A re-export is no caller.
pub use self::orphan as renamed;

// Called only from the test module below, which does not count.
pub fn tested_only(x: u32) -> u32 { //~ API02
    x + 1
}

// Named only inside its own impl block, which does not count either.
pub struct Lonely { //~ API02
    pub count: u32,
}

impl Lonely {
    fn fresh() -> Lonely {
        Lonely { count: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_it() {
        assert_eq!(tested_only(1), 2);
        assert_eq!(orphan(), 7);
    }
}
