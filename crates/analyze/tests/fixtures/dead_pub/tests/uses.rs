// Fixture: a root integration test naming a crate item.
#[test]
fn reads_the_static() {
    assert_eq!(alpha::USED_BY_TESTS, 1);
}
