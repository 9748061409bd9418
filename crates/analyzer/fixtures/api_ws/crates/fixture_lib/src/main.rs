// Binaries are no library surface: `main_only` must not appear.
pub fn main_only() {}

fn main() {
    main_only();
}
