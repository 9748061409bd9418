// API02 fixture: public items with a non-test caller, items allowed
// with a reason, and exempt trait-impl methods, fields and variants.

pub fn helper() -> u32 {
    3
}

pub const LIMIT: usize = 4;

pub struct Meter {
    pub reading: u32,
}

pub enum Mode {
    Fast,
    Slow,
}

pub trait Gauge {
    fn read(&self) -> u32;
}

// Trait-impl methods are exempt: `read` and `fmt` need no caller.
impl Gauge for Meter {
    fn read(&self) -> u32 {
        self.reading
    }
}

impl std::fmt::Display for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reading)
    }
}

// noc-verify: allow(API02) — fixture: kept public as a test oracle
pub fn oracle() -> u32 {
    5
}

// noc-verify: allow(API02) — fixture: a paper constant the tests read
pub const PAPER_GOLDEN_PJ: u64 = 390;

fn run(gauge: &dyn Gauge, mode: Mode) -> usize {
    let meter = Meter { reading: helper() };
    match mode {
        Mode::Fast | Mode::Slow => gauge.read() as usize + LIMIT + meter.read() as usize,
    }
}
