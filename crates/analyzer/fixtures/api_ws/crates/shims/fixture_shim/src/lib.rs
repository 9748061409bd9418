// API01 fixture: a miniature shim crate whose public surface the
// manifest tests pin down. `hidden` must never appear in the surface.
pub struct Widget {
    pub size: u32,
}

impl Widget {
    pub fn new(size: u32) -> Self {
        Self { size }
    }

    fn hidden(&self) -> u32 {
        self.size
    }
}

pub fn widget_default() -> Widget {
    Widget::new(0)
}
