// Binaries are no library surface: `bin_only` must not appear.
pub fn bin_only() {}

fn main() {
    bin_only();
}
