// Fixture: `dead_pub` over a small workspace; the files beside this one
// are the only places these names may be used.
mod sibling;

pub fn unreferenced() {}

pub const UNREFERENCED_LIMIT: u32 = 8;

pub const fn unreferenced_const_fn() -> u32 {
    1
}

pub fn used_by_sibling() {}

pub fn named_in_comment_only() {}

pub fn named_in_string_only() {}

pub fn reexported_only() {}

pub fn used_by_benchmark() {}

pub static USED_BY_TESTS: u32 = 1;

pub(crate) fn crate_visible() {}

// flstore: allow(dead_pub, resolved by name through a plugin table)
pub fn annotated() {}

// flstore: allow(dead_pub)
pub fn annotated_without_reason() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
