// API01 fixture: a miniature library crate whose public surface the
// manifest tests pin down. `internal` must never appear in the surface.
pub struct Gadget {
    pub id: u32,
}

impl Gadget {
    pub fn new(id: u32) -> Self {
        Self { id }
    }

    pub(crate) fn internal(&self) -> u32 {
        self.id
    }
}

pub fn gadget_count() -> usize {
    0
}

// Impls of a type or trait declared without plain `pub` are no surface,
// even where their methods are `pub`.
struct Hidden;

impl Hidden {
    pub fn peek(&self) -> u32 {
        0
    }
}

pub(crate) trait Internal {
    fn poke(&self);
}

impl Internal for Gadget {
    fn poke(&self) {}
}
