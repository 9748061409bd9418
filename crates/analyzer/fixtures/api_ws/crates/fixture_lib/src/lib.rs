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
